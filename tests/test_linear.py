from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from natalg.linear import LinComb


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
