"""The divisor-splitting convolution structure and its cochain calculus."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from natalg import dirichlet as dh
from natalg.linear import LinComb
from natalg.nat import divisors, factorize, moebius, moebius_sieve, omega_grade
from test_exactness import brute_inverse


def test_coproduct_enumerates_divisor_pairs():
    assert dh.coproduct_mul(1) == LinComb({(1, 1): 1})
    assert dh.coproduct_mul(6) == LinComb(
        {(1, 6): 1, (2, 3): 1, (3, 2): 1, (6, 1): 1}
    )
    with pytest.raises(ValueError):
        dh.coproduct_mul(0)


def test_proper_part_and_counit():
    assert dh.coproduct_mul_proper(12) == LinComb(
        {(2, 6): 1, (3, 4): 1, (4, 3): 1, (6, 2): 1}
    )
    assert dh.counit_mul(1) == 1
    assert dh.counit_mul(5) == 0


def test_weighted_coproduct_on_a_prime_square():
    p = 5
    assert dh.coproduct_mul_unrenorm(p * p) == LinComb(
        {(1, 25): 1, (5, 5): 2, (25, 1): 1}
    )


@given(st.integers(min_value=1, max_value=400))
def test_weighted_coproduct_weights_are_per_prime_binomials(n):
    for (d, e), c in dh.coproduct_mul_unrenorm(n):
        assert d * e == n
        expected = math.prod(
            math.comb(r, dict(factorize(d)).get(p, 0)) for p, r in factorize(n)
        )
        assert c == expected


def test_iterated_weighted_coproduct_fully_split_coefficient():
    # splitting p^r into r single legs carries weight r!
    lc = dh.coproduct_mul_unrenorm_iterated(2, 3)
    assert lc.terms[(2, 2, 2)] == 6
    assert lc.terms[(1, 2, 4)] == 3


# antipodes: closed form against the convolution axiom itself


@given(st.integers(min_value=1, max_value=800))
def test_moebius_antipode_satisfies_the_antipode_axiom(n):
    total = sum(dh.antipode_mul(d) * (n // d) for d in divisors(n))
    assert total == (1 if n == 1 else 0)


@given(st.integers(min_value=1, max_value=400))
def test_weighted_antipode_axiom_through_weighted_coproduct(n):
    total = sum(c * dh.antipode_unrenorm(d) * e for (d, e), c in dh.coproduct_mul_unrenorm(n))
    assert total == (1 if n == 1 else 0)


def test_antipode_values():
    assert [dh.antipode_mul(n) for n in range(1, 11)] == [
        1, -2, -3, 0, -5, 6, -7, 0, 0, 10,
    ]
    assert [dh.antipode_unrenorm(n) for n in range(1, 9)] == [
        1, -2, -3, 4, -5, 6, -7, -8,
    ]


def test_antipode_checks_can_be_disabled():
    assert dh.antipode_mul(30, check=False) == 30 * moebius(30)


# arithmetic functions


def test_moebius_inverse_is_zeta():
    # a fresh mu, whose inverse is pulled through the divisor recursion
    inv = dh.ArithFn(moebius, "moebius").inverse()
    assert [inv(n) for n in range(1, 30)] == [1] * 29


def test_zeta_and_moebius_are_one_inverse_pair():
    assert dh.zeta.inverse() is dh.moebius_fn
    assert dh.moebius_fn.inverse() is dh.zeta
    assert dh.zeta._inverts is None  # only mu is solved from zeta


def test_a_range_of_moebius_is_solved_from_zeta(monkeypatch):
    def closed_form(n):
        raise AssertionError(f"mu({n}) evaluated on its own inside a range")

    monkeypatch.setattr(dh.moebius_fn, "_fn", closed_form)
    want = moebius_sieve(10**4)[1:]
    assert dh.moebius_fn.values(10**4) == want == [moebius(n) for n in range(1, 10**4 + 1)]
    upto = len(dh.moebius_fn._vals) + 500  # a stretch no earlier call has solved
    assert dh.moebius_fn.values(upto) == moebius_sieve(upto)[1:]


def test_an_isolated_moebius_value_keeps_the_closed_form():
    n = 963761198400  # 6,720 divisors: a pull through them would store each
    before = len(dh.moebius_fn._cache)
    assert dh.moebius_fn(n) == 0
    assert len(dh.moebius_fn._cache) <= before + 1


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=40))
def test_convolutive_inverse_roundtrip(values):
    # any f with f(1) != 0 is invertible; force f(1) = 1
    table = {n + 1: v for n, v in enumerate(values)}
    table[1] = 1
    f = dh.ArithFn(lambda n: table.get(n, 0), "random")
    g = f.inverse()
    for n in range(1, len(values) + 1):
        assert dh.dirichlet_convolve(f, g, n) == (1 if n == 1 else 0)


def test_inverse_of_inverse_is_identity_object():
    assert dh.zeta.inverse().inverse() is dh.zeta


def test_non_invertible_function_rejected():
    f = dh.ArithFn(lambda n: n - 1, "vanishes-at-1")
    with pytest.raises(ValueError):
        f.inverse()


def test_multiplicativity_flags():
    assert dh.moebius_fn.is_multiplicative(30)
    assert not dh.moebius_fn.is_completely_multiplicative(30)
    assert dh.liouville.is_completely_multiplicative(30)
    assert dh.id_power(2).is_completely_multiplicative(20)


# cochain calculus


def test_moebius_coboundary_is_the_unit_cochain():
    for n in range(1, 31):
        for m in range(1, 31):
            assert dh.coboundary2_mul(dh.moebius_fn, n, m) == (
                1 if n == m == 1 else 0
            )


def test_completely_multiplicative_coboundaries_vanish_on_coprime_pairs():
    for phi in (dh.zeta, dh.identity_fn, dh.liouville):
        for n in range(1, 25):
            for m in range(1, 25):
                if math.gcd(n, m) == 1:
                    assert dh.coboundary2_mul(phi, n, m) == (1 if n == m == 1 else 0)


def test_coboundary_deviations_at_2_2():
    assert dh.coboundary2_mul(dh.zeta, 2, 2) == -1
    assert dh.coboundary2_mul(dh.identity_fn, 2, 2) == -4


def test_inverse_of_coboundary_is_not_coboundary_of_inverse():
    # coboundary of any inverse of a completely multiplicative cochain is
    # trivial, so inversion and the coboundary map cannot commute for a
    # cochain whose own coboundary deviates anywhere
    inv_then_d = dh.coboundary2_mul(dh.identity_fn.inverse(), 2, 2)
    assert inv_then_d == 0
    d2_id = lambda n, m: dh.coboundary2_mul(dh.identity_fn, n, m)
    d_then_inv = dh.two_cochain_inverse(d2_id, 2)
    assert d_then_inv[(2, 2)] != 0


def test_two_cochain_inverse_really_inverts():
    c = lambda n, m: dh.coboundary2_mul(dh.zeta, n, m)
    inv = dh.two_cochain_inverse(c, 6)
    for n in range(1, 7):
        for m in range(1, 7):
            got = dh.two_cochain_convolve(c, lambda a, b: inv[(a, b)], n, m)
            assert got == (1 if n == m == 1 else 0)


def pull_two_cochain_inverse(c, upto):
    # the solve as first written: c is called once per divisor pair
    c11 = c(1, 1)
    inv = {}
    for n in range(1, upto + 1):
        for m in range(1, upto + 1):
            acc = 1 if n == 1 and m == 1 else 0
            for d in divisors(n):
                for l in divisors(m):
                    if (d, l) != (1, 1):
                        acc -= c(d, l) * inv[(n // d, m // l)]
            inv[(n, m)] = Fraction(acc, c11)
    return inv


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_cochain_inverse_reads_each_value_once(seed):
    rng = random.Random(seed)
    table = {(d, l): rng.randint(-3, 3) for d in range(1, 25) for l in range(1, 25)}
    table[(1, 1)] = rng.choice([-2, -1, 1, 2, 3])
    calls = []

    def c(d, l):
        calls.append((d, l))
        return table[(d, l)]

    inv = dh.two_cochain_inverse(c, 24)
    assert len(calls) == 576 and len(set(calls)) == 576
    assert inv == pull_two_cochain_inverse(lambda d, l: table[(d, l)], 24)


def counting(fn):
    """fn, and the list of arguments it has been called with."""
    calls = []

    def counted(n):
        calls.append(n)
        return fn(n)

    return counted, calls


def test_dirichlet_inverse_matches_arithfn_inverse(monkeypatch):
    f, f_calls = counting(lambda n: n + 1)  # f(1) = 2: Fraction values
    fn = dh.ArithFn(f, "n+1")
    g = dh.dirichlet_inverse(fn)
    assert g is fn.inverse()
    assert f_calls == [1]  # nothing forced without upto: inverse() reads f(1) alone
    # a bare callable is wrapped; upto forces the first 40 values by the bulk
    # solve, which reads exactly h(1..40) and leaves nothing to solve below 41
    h, h_calls = counting(lambda n: n + 1)
    forced = dh.dirichlet_inverse(h, upto=40)
    assert sorted(h_calls) == list(range(1, 41))
    real = dh.exact_div
    divs, div_calls = counting(lambda args: real(*args))
    monkeypatch.setattr(dh, "exact_div", lambda a, b: divs((a, b)))
    assert forced.values(40) == [forced(n) for n in range(1, 41)]
    assert div_calls == []
    forced(41)
    assert len(div_calls) == 1
    monkeypatch.undo()
    assert forced.values(40) == g.values(40)
    assert dh.dirichlet_inverse(dh.zeta, upto=10).values(10) == [moebius(n) for n in range(1, 11)]


# the value store: f(1..N) solved or evaluated in bulk, isolated n pulled


def test_an_interrupted_bulk_solve_leaves_no_unsolved_value(monkeypatch):
    g = dh.ArithFn(lambda n: n + 1, "n+1").inverse()
    real, calls = dh.exact_div, []

    def failing(a, b):
        calls.append(a)
        if len(calls) == 50:
            raise RuntimeError("interrupted")
        return real(a, b)

    monkeypatch.setattr(dh, "exact_div", failing)
    with pytest.raises(RuntimeError):
        g.values(200)
    monkeypatch.undo()
    fresh = dh.ArithFn(lambda n: n + 1, "n+1").inverse()
    assert g.values(200) == fresh.values(200)
    assert g(100) == fresh(100)


def test_values_up_to_nothing_is_empty():
    for f in (dh.ArithFn(lambda n: n, "id"), dh.ArithFn(lambda n: n + 1, "n+1").inverse()):
        f.values(5)
        for upto in (0, -1, -3):
            assert f.values(upto) == []


def test_values_returns_a_copy():
    for f in (dh.ArithFn(lambda n: n, "id"), dh.ArithFn(lambda n: n + 1, "n+1").inverse()):
        want = f.values(10)
        got = f.values(10)
        got[2] = 99
        got.append(99)
        assert f(3) == want[2] and f.values(11)[:10] == want


def test_each_value_is_evaluated_once():
    f, calls = counting(lambda n: n % 3 - 1)  # zero at 1, 4, 7, ...
    fn = dh.ArithFn(f, "mod3")
    assert [fn(n) for n in (7, 4, 30, 4)] == [0, 0, -1, 0]
    assert fn.values(10) == [n % 3 - 1 for n in range(1, 11)]
    assert [fn(n) for n in (1, 7, 10, 30, 31)] == [0, 0, 0, -1, 0]
    assert fn.values(40) == [n % 3 - 1 for n in range(1, 41)]
    assert sorted(calls) == list(range(1, 41))


def test_pulls_and_bulk_solves_mix():
    rng = random.Random(45)
    table = [0, 2] + [rng.choice((0, 0, -1, 1, 3)) for _ in range(149)]  # zeros in the prefix
    want = [None] + brute_inverse(table, 150)
    g = dh.ArithFn(table.__getitem__, "table").inverse()
    assert [g(n) for n in (97, 36, 128)] == [want[n] for n in (97, 36, 128)]
    assert g.values(100) == want[1:101]
    assert [g(n) for n in (97, 128, 150, 99)] == [want[n] for n in (97, 128, 150, 99)]
    assert g.values(150) == want[1:]
    assert [g(n) for n in range(150, 0, -1)] == want[:0:-1]


def test_pointwise_coboundary_detects_complete_multiplicativity():
    assert dh.pointwise_coboundary2(dh.moebius_fn, 2, 2) == 1
    assert all(
        dh.pointwise_coboundary2(dh.liouville, n, m) == 0
        for n in range(1, 15)
        for m in range(1, 15)
    )


# branchings, sharp product, pairing


def test_branch_divide_projects_nondivisors_to_zero():
    assert dh.branch_divide(3, 12) == 4
    assert dh.branch_divide(5, 12) == 0


def test_branch_derive_is_a_prime_derivation():
    assert dh.branch_derive(2, 12) == LinComb.single(6, 2)
    assert dh.branch_derive(5, 12) == LinComb.zero()
    with pytest.raises(ValueError):
        dh.branch_derive(4, 12)


@given(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=200))
def test_branch_derive_leibniz(p, n, m):
    # D(nm) = D(n) m + n D(m), read through the single-key linear combs
    def as_value(lc):
        return sum(c * k for k, c in lc)

    left = as_value(dh.branch_derive(p, n * m))
    right = as_value(dh.branch_derive(p, n)) * m + n * as_value(dh.branch_derive(p, m))
    assert left == right


def test_sharp_product_carries_divided_power_coefficient():
    assert dh.sharp_multiply(2, 4) == (3, 8)
    assert dh.sharp_multiply(6, 10) == (2, 60)
    assert dh.sharp_multiply(2, 3) == (1, 6)
    # the square of a 19-digit prime is beyond Pollard rho's budget, so the
    # coefficient must come from the factors, not from factorizing n * m
    p = 1000000000000000003
    assert dh.sharp_multiply(p, p) == (2, p * p)


def test_pairing_diagonal_is_factorial_product():
    assert dh.pairing_unrenorm(4, 4) == 2
    assert dh.pairing_unrenorm(8, 8) == 6
    assert dh.pairing_unrenorm(12, 12) == 2
    assert dh.pairing_unrenorm(12, 18) == 0


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
@settings(max_examples=60)
def test_pairing_recursion_agrees_with_closed_form(n, m):
    assert dh.pairing_unrenorm_laplace(n, m) == dh.pairing_unrenorm(n, m)


# structural results


@given(st.integers(min_value=1, max_value=600))
def test_exponentiation_bridge(n):
    assert dh.check_exponentiation_relation(n)


def test_bialgebra_compatibility_fails_at_four():
    direct, recombined, same = dh.bialgebra_counterexample()
    assert not same
    assert direct.terms[(2, 2)] == 1
    assert recombined.terms[(2, 2)] == 2
    # on every key except (2,2) the two agree
    diff = recombined - direct
    assert diff == LinComb({(2, 2): 1})
