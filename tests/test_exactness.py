"""Int-first exact scalars in the divisor and additive layers, and in the
coefficients of linear combinations and polynomials.

The bulk (push) solves are checked against the per-value (pull) recursion and
against brute-force solves written out here, which use only Fraction
arithmetic and divisors found by trial.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from natalg import additive as ad
from natalg import dirichlet as dh
from natalg import normal_order as no
from natalg import series as sr
from natalg import symfun as sf
from natalg import witt as wt
from natalg.linear import LinComb, exact_div, normalize

LEADS = st.sampled_from([1, -1, 2, -2, 3])


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_inverse(f, upto):
    """g(1..upto) with sum_{d | n} f(d) g(n/d) = [n = 1], by the recursion."""
    g = {1: Fraction(1) / f[1]}
    for n in range(2, upto + 1):
        acc = sum(Fraction(f[d]) * g[n // d] for d in brute_divisors(n) if d > 1)
        g[n] = -acc / f[1]
    return [g[n] for n in range(1, upto + 1)]


def exact(values):
    """Every value is an int or a Fraction, integral ones always int."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in values)


def table_fn(lead, tail):
    table = [0, lead, *tail]
    return table, dh.ArithFn(lambda n: table[n] if n < len(table) else 0, "table")


@settings(max_examples=40, deadline=None)
@given(LEADS, st.lists(st.integers(min_value=-3, max_value=3), max_size=80))
def test_bulk_inverse_matches_pull_and_brute_force(lead, tail):
    table, f = table_fn(lead, tail)
    upto = len(table) - 1
    bulk = f.inverse().values(upto)
    _, fresh = table_fn(lead, tail)
    pulled = fresh.inverse()  # largest n first, so each value recurses down
    assert bulk == [pulled(n) for n in range(upto, 0, -1)][::-1]
    assert bulk == brute_inverse(table, upto)
    assert exact(bulk)


@settings(max_examples=8, deadline=None)
@given(LEADS, st.integers(min_value=0, max_value=2**32))
def test_extending_a_bulk_solve_equals_a_fresh_one(lead, seed):
    rng = random.Random(seed)
    tail = [rng.randint(-2, 2) for _ in range(7_999)]
    _, f = table_fn(lead, tail)
    g = f.inverse()
    g(7_919)  # a value pulled beyond the first stretch is reused as is
    g.values(1_000)
    extended = g.values(8_000)
    _, fresh = table_fn(lead, tail)
    assert extended == fresh.inverse().values(8_000)
    assert extended[:200] == brute_inverse([0, lead, *tail], 200)


@settings(max_examples=40, deadline=None)
@given(LEADS, st.lists(st.integers(min_value=-3, max_value=3), max_size=60))
def test_series_inverse_matches_brute_force(lead, tail):
    coeffs = [lead, *tail]
    inv = sr.series_inverse(sr.DirichletSeries(coeffs))
    assert list(inv.coeffs) == brute_inverse([0, *coeffs], len(coeffs))
    assert exact(inv.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=60),
       st.lists(st.fractions(max_denominator=4), min_size=1, max_size=60))
def test_series_mul_matches_divisor_sums(a, b):
    k = min(len(a), len(b))
    got = sr.series_mul(sr.DirichletSeries(a), sr.DirichletSeries(b)).coeffs
    want = [sum(Fraction(a[d - 1]) * b[n // d - 1] for d in brute_divisors(n))
            for n in range(1, k + 1)]
    assert list(got) == want
    assert exact(got)


FLOATS = st.floats(min_value=-8, max_value=8, allow_nan=False, width=32)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.integers(-5, 5), st.fractions(max_denominator=6), FLOATS),
                min_size=1, max_size=12),
       st.data())
def test_float_and_fraction_inputs_convert_exactly(values, data):
    want = [Fraction(v) for v in values]
    s = sr.DirichletSeries(values)
    p = ad.PowerSeries(values)
    assert list(s.coeffs) == want and list(p.coeffs) == want
    assert exact(s.coeffs) and exact(p.coeffs)
    n = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    f, g = values.__getitem__, (lambda r: values[-1 - r])
    scalar = ad.convolve_add(f, g, n)
    monoid = ad.convolve_add(f, g, n, "monoid")
    assert scalar == sum(want[r] * want[-1 - (n - r)] for r in range(n + 1))
    assert monoid == sum(want[r] + want[-1 - (n - r)] for r in range(n + 1))
    assert exact([scalar, monoid])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(max_denominator=5), min_size=1, max_size=25),
       st.lists(st.fractions(max_denominator=5), min_size=1, max_size=25),
       st.sampled_from(["ordinary", "divided"]))
def test_power_series_products_stay_exact(a, b, basis):
    got = ad.series_multiply(ad.PowerSeries(a, basis), ad.PowerSeries(b, basis))
    w = (lambda k, r: 1) if basis == "ordinary" else \
        (lambda k, r: Fraction(brute_binomial(k, r)))
    want = [sum(w(k, r) * a[r] * b[k - r] for r in range(k + 1))
            for k in range(min(len(a), len(b)))]
    assert list(got.coeffs) == want
    assert exact(got.coeffs)
    assert exact(ad.PowerSeries(a, "divided").to_ordinary().coeffs)


def brute_binomial(k, r):
    out = 1
    for i in range(r):
        out = out * (k - i) // (i + 1)
    return out


def test_divisor_layer_values_are_ints_when_integral():
    assert exact(dh.zeta.inverse().values(50))
    assert exact([dh.coboundary2_mul(dh.identity_fn, n, m)
                  for n in range(1, 13) for m in range(1, 13)])
    inv = dh.two_cochain_inverse(lambda n, m: 2 if n == m == 1 else n - m, 6)
    assert exact(inv.values())
    assert exact([dh.dirichlet_convolve(dh.moebius_fn, lambda n: 0.5, n) for n in range(1, 9)])
    assert type(dh.counit_mul(1)) is int and type(dh.pairing_unrenorm(12, 12)) is int


def test_scalar_helpers():
    assert normalize(Fraction(6, 3)) == 2 and type(normalize(Fraction(6, 3))) is int
    assert normalize(0.25) == Fraction(1, 4)
    assert normalize(True) == 1 and type(normalize(True)) is int
    assert normalize("3/6") == Fraction(1, 2)
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(-3, 6) == Fraction(-1, 2)
    assert exact_div(Fraction(3, 2), Fraction(1, 2)) == 3
    assert type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int


PARTITIONS = st.integers(min_value=1, max_value=3).flatmap(
    lambda w: st.sampled_from(sf.partitions_of(w)))


@settings(max_examples=30, deadline=None)
@given(PARTITIONS, PARTITIONS)
def test_symmetric_function_coefficients_are_exact(lam, mu):
    circle = sf.circle_product(lam, mu)
    assert exact(circle.terms.values())
    assert exact(sf.schur_product_lr(lam, mu).terms.values())
    h = sf.to_h_basis(circle, sum(lam) + sum(mu))
    assert exact(h.terms.values())
    third = sf.to_h_basis(circle.scale(Fraction(1, 3)), sum(lam) + sum(mu))
    assert third == h.scale(Fraction(1, 3)) and exact(third.terms.values())


def test_operator_and_polynomial_coefficients_are_exact():
    for word in ((1, 1), (2, 1), (0, 2)):
        for n in range(7):
            assert exact(no.circle_power(word, n).terms.values())
    assert exact(no.R_iter(4).terms.values())
    assert type(no.stirling2_from_circle(6, 3)) is int
    F, G = wt.universal_polys(8)
    assert all(exact(p.terms.values()) for p in F + G)
    half = (wt.MultiPoly.var("x") + 1) / 2
    assert exact(half.terms.values()) and exact((half * 2).terms.values())
    assert exact(LinComb({1: 0.5, 2: Fraction(4, 2), 3: True}).terms.values())
