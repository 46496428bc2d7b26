"""Monomial-basis symmetric functions: pairing, circle product, Schur layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from natalg.linear import LinComb
from natalg.symfun import (
    circle_product,
    circle_sum,
    div_product,
    dominates,
    eta_complete,
    from_mult,
    kostka,
    laplace_pairing,
    monomial_oracle,
    mult_map,
    partitions_of,
    pleth_coproduct,
    render_sym,
    schur_product_lr,
    schur_product_oracle,
    to_h_basis,
    weight,
)

# partitions of weight <= 4, used as a sampling pool for property tests
SMALL = [p for w in range(5) for p in partitions_of(w)]
TINY = [p for w in range(4) for p in partitions_of(w)]


def test_partition_counts():
    assert [len(partitions_of(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert partitions_of(0) == ((),)
    assert partitions_of(4, max_part=2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_mult_map_roundtrip():
    lam = (4, 2, 2, 1)
    assert mult_map(lam) == {4: 1, 2: 2, 1: 1}
    assert from_mult(mult_map(lam)) == lam
    assert weight(lam) == 9


def test_div_product_coefficients():
    # shared part sizes pick up binomial factors, disjoint sizes do not
    assert div_product((1, 1), (1,)) == LinComb({(1, 1, 1): 3})
    assert div_product((2,), (3,)) == LinComb({(3, 2): 1})
    assert div_product((2, 2, 1), (2,)) == LinComb({(2, 2, 2, 1): 3})
    assert div_product((), (2, 1)) == LinComb({(2, 1): 1})


def test_pleth_coproduct_splits_multiplicities():
    assert pleth_coproduct((1, 1)) == LinComb({
        ((), (1, 1)): 1,
        ((1,), (1,)): 1,
        ((1, 1), ()): 1,
    })
    assert pleth_coproduct(()) == LinComb({((), ()): 1})
    # one split per choice of how many copies of each part size go left
    assert len(pleth_coproduct((2, 2, 1, 1)).terms) == 9


@given(st.sampled_from(SMALL))
def test_coproduct_legs_merge_back(lam):
    for (left, right), c in pleth_coproduct(lam):
        assert c == 1
        merged = dict(mult_map(left))
        for p, r in mult_map(right).items():
            merged[p] = merged.get(p, 0) + r
        assert from_mult(merged) == lam


def test_pairing_generator_rule():
    # equal multiplicities fuse the part sizes, unequal lengths vanish
    assert laplace_pairing((3, 3), (5, 5)) == LinComb({(8, 8): 1})
    assert laplace_pairing((1,), (1,)) == LinComb({(2,): 1})
    assert laplace_pairing((2, 2), (3,)) == LinComb.zero()
    assert laplace_pairing((), ()) == LinComb({(): 1})
    # mixed blocks expand through the coproduct of the other side
    assert laplace_pairing((2, 1), (1, 1)) == LinComb({(3, 2): 1})


def test_pairing_is_symmetric():
    # every same-length pair up to weight 8; unequal lengths pair to zero
    parts = [p for w in range(9) for p in partitions_of(w)]
    for u in parts:
        for v in parts:
            if len(u) == len(v):
                assert laplace_pairing(u, v) == laplace_pairing(v, u), (u, v)


def test_circle_known_products():
    assert circle_product((1,), (1,)) == LinComb({(1, 1): 2, (2,): 1})
    assert circle_product((5,), (2, 2)) == LinComb({(5, 2, 2): 1, (7, 2): 1})
    assert circle_product((1, 1), (1, 1, 1)) == LinComb({
        (2, 2, 1): 1,
        (2, 1, 1, 1): 3,
        (1, 1, 1, 1, 1): 10,
    })


def test_circle_unit_is_the_empty_partition():
    assert circle_product((), ()) == LinComb({(): 1})
    assert circle_product((3, 1), ()) == LinComb({(3, 1): 1})
    assert circle_product((), (2, 2)) == LinComb({(2, 2): 1})


@given(st.sampled_from(SMALL), st.sampled_from(SMALL))
def test_circle_matches_polynomial_multiplication(lam, mu):
    nvars = max(weight(lam) + weight(mu), 1)
    assert circle_product(lam, mu) == monomial_oracle(lam, mu, nvars)


def test_oracle_rejects_too_few_variables():
    with pytest.raises(ValueError):
        monomial_oracle((2, 1), (1,), 3)


def test_circle_sum_is_bilinear():
    x = LinComb({(1,): 2})
    y = LinComb({(1,): 1, (2,): -1})
    expect = (circle_product((1,), (1,)).scale(2)
              + circle_product((1,), (2,)).scale(-2))
    assert circle_sum(x, y) == expect


def test_kostka_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((2, 1), (3,)) == 0
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((2, 2), (2, 1, 1)) == 1
    with pytest.raises(ValueError):
        kostka((2, 1), (2, 2))


def test_kostka_positive_iff_dominant():
    for w in range(8):
        parts = partitions_of(w)
        for lam in parts:
            assert kostka(lam, lam) == 1
            for mu in parts:
                assert (kostka(lam, mu) > 0) == dominates(lam, mu)


def test_dominance_is_a_partial_order():
    assert dominates((2, 2), (2, 1, 1))
    assert not dominates((2, 1, 1), (2, 2))
    # (4,1,1) and (3,3) are incomparable
    assert not dominates((4, 1, 1), (3, 3))
    assert not dominates((3, 3), (4, 1, 1))


def test_schur_product_of_hooks():
    got = schur_product_lr((2, 1), (2, 1))
    assert got == LinComb({
        (2, 2, 1, 1): 1,
        (2, 2, 2): 1,
        (3, 1, 1, 1): 1,
        (3, 2, 1): 2,
        (3, 3): 1,
        (4, 1, 1): 1,
        (4, 2): 1,
    })


def test_schur_column_times_column():
    # multiplying single-column shapes adds vertical strips
    got = schur_product_lr((1, 1), (1, 1, 1))
    assert got == LinComb({(2, 2, 1): 1, (2, 1, 1, 1): 1, (1, 1, 1, 1, 1): 1})


@settings(max_examples=60)
@given(st.sampled_from(TINY), st.sampled_from(TINY))
def test_schur_product_matches_tableau_oracle(lam, mu):
    assert schur_product_lr(lam, mu) == schur_product_oracle(lam, mu)


def test_eta_complete_sums_all_monomials():
    assert eta_complete(0) == LinComb({(): 1})
    assert eta_complete(3) == LinComb({(3,): 1, (2, 1): 1, (1, 1, 1): 1})
    with pytest.raises(ValueError):
        eta_complete(-1)


def test_h_basis_conversion():
    # h_2 = m_2 + m_11 and h_11 = m_2 + 2 m_11, so m_2 = 2 h_2 - h_11
    assert to_h_basis(LinComb.single((2,)), 2) == LinComb(
        {(2,): Fraction(2), (1, 1): Fraction(-1)}
    )
    assert to_h_basis(LinComb.single((1, 1)), 2) == LinComb(
        {(1, 1): Fraction(1), (2,): Fraction(-1)}
    )
    # the weight-n monomial sum is exactly h_n
    assert to_h_basis(eta_complete(3), 3) == LinComb({(3,): 1})


def h_in_m(lam):
    """h_lam in the monomial basis as a circle product of complete functions;
    the circle product is checked against monomial_oracle above."""
    out = LinComb.single(())
    for part in lam:
        out = circle_sum(out, eta_complete(part))
    return out


H_IN_M = {lam: h_in_m(lam) for w in range(9) for lam in partitions_of(w)}


def test_h_basis_of_each_complete_product_is_one_term():
    for lam, h in H_IN_M.items():
        assert to_h_basis(h, weight(lam)) == LinComb.single(lam), lam


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7).flatmap(lambda w: st.tuples(
    st.just(w),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
             min_size=len(partitions_of(w)), max_size=len(partitions_of(w))))))
def test_h_basis_round_trip(case):
    w, coeffs = case
    x = LinComb(dict(zip(partitions_of(w), coeffs)))
    got = to_h_basis(x, w)
    back = LinComb.zero()
    for lam, c in got:
        back = back + H_IN_M[lam].scale(c)
    assert back == x


def test_h_basis_refuses_inhomogeneous_input():
    with pytest.raises(ValueError, match=r"\(3,\)"):
        to_h_basis(LinComb.single((3,)), 2)
    with pytest.raises(ValueError, match=r"\(1,\)"):
        to_h_basis(LinComb({(1,): 1, (2,): 1}), 2)


def test_render_formats():
    assert render_sym(circle_product((1,), (1,))) == "2*m[1,1] + m[2]"
    assert render_sym(LinComb.zero()) == "0"
    assert render_sym(LinComb.single((2, 1)), basis="s") == "s[2,1]"
