"""Dirichlet series vectors and the classical identities around them."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from natalg import series as sr
from natalg.nat import divisors, moebius


def test_series_is_one_indexed():
    f = sr.DirichletSeries([5, 7, 11])
    assert f[1] == 5 and f[3] == 11
    assert len(f) == 3


def test_equality_compares_shared_prefix():
    assert sr.DirichletSeries([1, 2, 3]) == sr.DirichletSeries([1, 2])
    assert sr.DirichletSeries([1, 2, 3]) != sr.DirichletSeries([1, 5])


def test_named_series_values():
    assert [sr.named_series("zeta", 6)[n] for n in range(1, 7)] == [1] * 6
    assert [sr.named_series("zeta_squared", 8)[n] for n in range(1, 9)] == [
        1, 2, 2, 3, 2, 4, 2, 4,
    ]
    assert [sr.named_series("lambda", 6)[n] for n in range(1, 7)] == [1, 0, 1, 0, 1, 0]
    assert [sr.named_series("identity_shift", 6)[n] for n in range(1, 7)] == [
        1, -2, -3, 0, -5, 6,
    ]
    with pytest.raises(ValueError):
        sr.named_series("nope", 5)


def test_named_series_read_the_convolution_algebra():
    N = 2000
    counts = [0] * (N + 1)
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            counts[m] += 1
    mu = [moebius(n) for n in range(1, N + 1)]
    assert list(sr.named_series("zeta_squared", N).coeffs) == counts[1:]
    assert list(sr.named_series("moebius", N).coeffs) == mu
    assert list(sr.named_series("identity_shift", N).coeffs) == [n * m for n, m in enumerate(mu, 1)]


def brute_ordered_factorizations(n):
    if n == 1:
        return 1
    return sum(
        brute_ordered_factorizations(n // f)
        for f in range(2, n + 1)
        if n % f == 0
    )


def test_ordered_factorization_series():
    H = sr.named_series("ordered_factorizations", 16)
    assert [H[n] for n in range(1, 17)] == [
        brute_ordered_factorizations(n) for n in range(1, 17)
    ]
    # the first twelve values, with H(7) = 1 present
    assert [H[n] for n in range(1, 13)] == [1, 1, 1, 2, 1, 3, 1, 4, 2, 3, 1, 8]


def test_zeta_squared_is_zeta_times_zeta():
    z = sr.named_series("zeta", 12)
    assert sr.series_mul(z, z) == sr.named_series("zeta_squared", 12)


def test_moebius_series_inverts_zeta():
    z = sr.named_series("zeta", 40)
    assert sr.series_inverse(z) == sr.named_series("moebius", 40)


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=25))
def test_series_inverse_roundtrip(coeffs):
    coeffs[0] = 1
    f = sr.DirichletSeries(coeffs)
    unit = sr.DirichletSeries([1] + [0] * (len(coeffs) - 1))
    assert sr.series_mul(f, sr.series_inverse(f)) == unit


def test_series_inverse_needs_a_unit():
    with pytest.raises(ValueError):
        sr.series_inverse(sr.DirichletSeries([0, 1]))


def test_hadamard_and_add_are_pointwise():
    f = sr.DirichletSeries([1, 2, 3])
    g = sr.DirichletSeries([4, 5, 6])
    assert sr.series_add(f, g) == sr.DirichletSeries([5, 7, 9])
    assert sr.hadamard(f, g) == sr.DirichletSeries([4, 10, 18])


def test_euler_product_matches_moebius():
    ep = sr.euler_product_inverse_zeta(60, 60)
    assert all(ep[n] == moebius(n) for n in range(1, 61))


def test_euler_product_needs_enough_primes():
    with pytest.raises(ValueError):
        sr.euler_product_inverse_zeta(5, 60)


def test_l_series_fills_periodically():
    chi = [1, -1]
    f = sr.l_series(chi, 7)
    assert [f[n] for n in range(1, 8)] == [1, -1, 1, -1, 1, -1, 1]


def test_character_complete_multiplicativity_probe():
    assert sr.character_is_completely_multiplicative([1, 0, -1, 0], 40)
    assert not sr.character_is_completely_multiplicative([1, 1, 0, 0], 40)


def test_lambda_series_restricts_zeta_to_odds():
    lam = sr.named_series("lambda", 30)
    z = sr.named_series("zeta", 30)
    for n in range(1, 31):
        assert z[n] == lam[n] + (z[n // 2] if n % 2 == 0 else 0)


def test_hurwitz_shifted_support():
    # shifting by k moves the support onto n > k with the same tail
    coeffs = sr.hurwitz_coeffs(3, 10)
    assert coeffs[:3] == [0, 0, 0]
    assert all(c == 1 for c in coeffs[3:])


def test_lambert_identity():
    assert sr.lambert_moebius_check(64)


def test_polylog_table_is_kronecker():
    table = sr.polylog_coeffs(5, 5)
    for n in range(1, 6):
        for m in range(1, 6):
            assert table[n - 1][m - 1] == (1 if n == m else 0)


def test_odg_table_is_an_outer_product():
    t = sr.odg_table([1, 2], [3, 4, 5])
    assert t == [[3, 4, 5], [6, 8, 10]]


def test_csv_rows():
    f = sr.DirichletSeries([1, Fraction(-1, 2)])
    assert sr.to_csv(f) == "1,1\n2,-1/2"
