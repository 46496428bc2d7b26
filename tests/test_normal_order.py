"""Twisted product on normal-ordered boson words and the Stirling bridge."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from natalg.linear import LinComb
from natalg.normal_order import (
    T,
    VACUUM,
    R_iter,
    ccr_check,
    circle_op,
    circle_op_sum,
    circle_op_via_pairing,
    circle_power,
    derive_annihilate,
    inner_product,
    main_theorem_check,
    pairing_F,
    rb_identity_diagnostic,
    render_op,
    rota_baxter_R,
    stirling2,
    stirling2_from_circle,
    stirling2_rec,
)

words = st.tuples(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=0, max_value=5))


def test_pairing_counts_perfect_matchings():
    assert pairing_F((0, 2), (2, 0)) == 2
    assert pairing_F((0, 3), (3, 0)) == 6
    assert pairing_F((0, 0), (0, 0)) == 1
    # mixed words and unequal powers do not contract
    assert pairing_F((0, 2), (3, 0)) == 0
    assert pairing_F((1, 1), (1, 1)) == 0
    with pytest.raises(ValueError):
        pairing_F((0, -1), (1, 0))


def test_known_products():
    assert circle_op((0, 1), (1, 0)) == LinComb({(1, 1): 1, (0, 0): 1})
    assert circle_op(T, T) == LinComb({(2, 2): 1, (1, 1): 1})
    assert circle_op(T, (2, 2)) == LinComb({(3, 3): 1, (2, 2): 2})
    # one annihilator through a creator power
    assert circle_op((0, 1), (5, 0)) == LinComb({(5, 1): 1, (4, 0): 5})
    # two annihilators: n(n-1) full contractions at the end
    assert circle_op((0, 2), (4, 0)) == LinComb({(4, 2): 1, (3, 1): 8, (2, 0): 12})


def test_vacuum_is_the_unit():
    for w in [(0, 0), (1, 1), (3, 2), (0, 4)]:
        assert circle_op(VACUUM, w) == LinComb.single(w)
        assert circle_op(w, VACUUM) == LinComb.single(w)


@given(words, words)
def test_closed_contract_matches_pairing_expansion(u, v):
    assert circle_op(u, v) == circle_op_via_pairing(u, v)


@given(st.tuples(st.integers(0, 3), st.integers(0, 3)),
       st.tuples(st.integers(0, 3), st.integers(0, 3)),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_product_is_associative(u, v, w):
    xu, xv, xw = (LinComb.single(x) for x in (u, v, w))
    assert circle_op_sum(circle_op_sum(xu, xv), xw) == \
        circle_op_sum(xu, circle_op_sum(xv, xw))


def test_ccr_on_states():
    assert all(ccr_check(n) for n in range(12))


def test_derive_annihilate():
    assert derive_annihilate(0) == (0, 0)
    assert derive_annihilate(4) == (4, 3)
    with pytest.raises(ValueError):
        derive_annihilate(-1)


def test_states_are_orthonormal():
    for n in range(7):
        for m in range(7):
            assert inner_product(n, m) == (1 if n == m else 0)


def test_stirling_row_values():
    assert [stirling2(3, k) for k in range(1, 4)] == [1, 3, 1]
    assert [stirling2(5, k) for k in range(1, 6)] == [1, 15, 25, 10, 1]
    assert stirling2(0, 0) == 1
    assert stirling2(4, 0) == 0
    assert stirling2(0, 2) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 2)


def test_stirling_three_ways_agree():
    for n in range(45):
        for k in range(30):
            got = stirling2(n, k)
            assert type(got) is int
            assert got == stirling2_rec(n, k)
    for n in range(8):
        for k in range(n + 1):
            assert stirling2_from_circle(n, k) == stirling2(n, k)


def test_circle_powers_of_the_number_operator():
    assert circle_power(T, 3) == LinComb({(1, 1): 1, (2, 2): 3, (3, 3): 1})
    assert circle_power(T, 0) == LinComb.single(VACUUM)
    with pytest.raises(ValueError):
        circle_power(T, -2)


def test_partial_sum_operator():
    assert R_iter(1) == LinComb.single(T)
    assert R_iter(2) == LinComb({(2, 2): Fraction(1, 2)})
    for k in range(7):
        assert R_iter(k).scale(math.factorial(k)) == LinComb.single((k, k))
    with pytest.raises(ValueError):
        rota_baxter_R(LinComb.single((2, 1)))


def test_power_expands_in_iterates():
    lhs = circle_power(T, 3)
    rhs = R_iter(1) + R_iter(2).scale(6) + R_iter(3).scale(6)
    assert lhs == rhs


def test_main_theorem_small_powers():
    for n in range(1, 9):
        assert main_theorem_check(n)
    with pytest.raises(ValueError):
        main_theorem_check(0)


def test_which_rota_baxter_shape_holds():
    # the partial-sum realization satisfies the weight-one standard identity
    # and not the nested variant; this pins the distinction down
    x = LinComb.single(T)
    y = LinComb.single((2, 2))
    assert rb_identity_diagnostic(x, x) == {"standard": True, "nested": False}
    assert rb_identity_diagnostic(x, y)["standard"]


def test_render_formats():
    assert render_op(circle_op((0, 1), (1, 0))) == "1 + :a† a:"
    assert render_op(circle_power(T, 3)) == \
        ":a† a: + 3 :a†^2 a^2: + :a†^3 a^3:"
    assert render_op(LinComb.zero()) == "0"
    assert render_op(LinComb.single(VACUUM, Fraction(1, 2))) == "1/2"
    assert render_op(LinComb.single((2, 1), 2)) == "2 :a†^2 a:"
