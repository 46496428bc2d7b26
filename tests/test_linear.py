from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from natalg.linear import LinComb, exact_div, triangular_solve


small_combs = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-10, max_value=10, max_denominator=6),
    max_size=6,
).map(LinComb)


def test_zero_coefficients_are_dropped():
    x = LinComb({1: 0, 2: 3})
    assert x.terms == {2: Fraction(3)}
    assert not LinComb({1: 0})


def test_single_and_zero():
    assert LinComb.single("k").terms == {"k": Fraction(1)}
    assert LinComb.zero().terms == {}


@given(small_combs, small_combs)
def test_addition_is_commutative(x, y):
    assert x + y == y + x


@given(small_combs, small_combs, small_combs)
def test_addition_is_associative(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(small_combs)
def test_subtraction_cancels(x):
    assert x - x == LinComb.zero()
    assert x + (-x) == LinComb.zero()


@given(small_combs)
def test_scale_distributes(x):
    assert x.scale(2) == x + x
    assert x.scale(0) == LinComb.zero()
    assert 3 * x == x.scale(3)


def test_bilinear_is_a_product():
    x = LinComb({1: 2, 2: 1})
    y = LinComb({3: 1})
    prod = x.bilinear(y, lambda a, b: LinComb.single(a + b))
    assert prod == LinComb({4: 2, 5: 1})


def test_map_keys_merges():
    x = LinComb({1: 1, -1: 1})
    assert x.map_keys(abs) == LinComb({1: 2})


def test_iteration_yields_pairs():
    pairs = dict(LinComb({1: 2, 2: 3}))
    assert pairs == {1: Fraction(2), 2: Fraction(3)}


def test_not_hashable():
    with pytest.raises(TypeError):
        hash(LinComb({1: 1}))


def test_sorted_terms_deterministic():
    x = LinComb({3: 1, 1: 2, 2: 5})
    assert [k for k, _ in x.sorted_terms()] == [1, 2, 3]


class Tagged(LinComb):
    __slots__ = ()


def test_integral_coefficients_are_ints():
    x = LinComb({1: Fraction(4, 2), 2: Fraction(1, 2), 3: 2.0})
    assert [type(c) for _, c in x] == [int, Fraction, int]
    assert type(x[9]) is int and x[9] == 0
    assert type((x + x)[2]) is int
    assert type(x.scale(Fraction(2, 1))[1]) is int
    assert x.scale(0.5)[2] == Fraction(1, 4)


def test_operators_keep_the_subclass():
    x, y = Tagged({1: 2, 2: Fraction(1, 2)}), Tagged({2: 1})
    results = [x + y, x - y, -x, x.scale(3), 3 * x, x.scale(0),
               x.bilinear(y, lambda a, b: LinComb.single(a * b))]
    assert all(type(r) is Tagged for r in results)
    assert x + y == LinComb({1: 2, 2: Fraction(3, 2)})
    with pytest.raises(TypeError):
        hash(x)


def test_exact_div_divides_a_combination_termwise():
    x = Tagged({1: 3, 2: 4})
    assert exact_div(x, 2) == LinComb({1: Fraction(3, 2), 2: 2})
    assert type(exact_div(x, 2)) is Tagged and type(exact_div(x, 2)[2]) is int


def recombine(a, expand):
    """sum a[k] * row(k), with the test's own loop."""
    out = {}
    for k, c in a.items():
        for j, e in expand(k):
            out[j] = out.get(j, 0) + c * e
    return {j: v for j, v in out.items() if v}


def test_triangular_solve_raises_when_the_rows_do_not_span_x():
    bidiagonal = lambda k: [(k, 1), (k + 1, 1)]
    with pytest.raises(ArithmeticError):
        triangular_solve({0: 1, 9: 2}, range(3), bidiagonal)
    with pytest.raises(ArithmeticError):
        triangular_solve({0: 1}, range(3), bidiagonal)  # row 2 pushes onto 3
    with pytest.raises(ArithmeticError):
        triangular_solve({1: 1}, range(3), lambda k: [(k, 1), (0, 1)])  # pushes backward
    assert triangular_solve({0: 1, 1: 1}, range(3), bidiagonal) == {0: 1, 1: 0, 2: 0}


def test_triangular_solve_divides_only_by_the_lead():
    def rows(k):
        return [(k, 2), *((j, j - k) for j in range(k + 1, 4))]

    whole = triangular_solve({0: 4, 1: 2, 3: 6}, range(4), rows, lead=2)
    assert whole == {0: 2, 1: 0, 2: -2, 3: 1}
    assert all(type(c) is int for c in whole.values())
    assert recombine(whole, rows) == {0: 4, 1: 2, 3: 6}
    split = triangular_solve({0: 1}, range(4), rows, lead=2)
    assert [type(c) for c in split.values()] == [Fraction] * 4
    assert recombine(split, rows) == {0: 1}
