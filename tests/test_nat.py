import math
import random

import pytest
from hypothesis import given, strategies as st

from natalg import nat
from natalg.nat import (
    divisors,
    factorize,
    is_prime,
    moebius,
    moebius_sieve,
    omega_grade,
)


def brute_divisors(n):
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def brute_moebius(n):
    # definition: 0 on square divisors, else (-1)^(number of prime factors)
    for p, r in factorize(n):
        if r > 1:
            return 0
    return (-1) ** len(factorize(n))


@given(st.integers(min_value=1, max_value=50_000))
def test_factorize_reconstructs(n):
    prod = 1
    for p, r in factorize(n):
        assert is_prime(p)
        assert r >= 1
        prod *= p**r
    assert prod == n


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


def test_factorize_orders_primes():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(1) == ()


@given(st.integers(min_value=1, max_value=2000))
def test_divisors_match_brute_force(n):
    assert divisors(n) == brute_divisors(n)


@given(st.integers(min_value=1, max_value=5000))
def test_moebius_matches_definition(n):
    assert moebius(n) == brute_moebius(n)


def test_moebius_first_ten():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_moebius_sieve_agrees_pointwise():
    sieve = moebius_sieve(3000)
    assert all(sieve[n] == moebius(n) for n in range(1, 3001))


def test_omega_counts_with_multiplicity():
    assert omega_grade(1) == 0
    assert omega_grade(8) == 3
    assert omega_grade(12) == 3
    assert omega_grade(30) == 3


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_omega_is_a_grading(n, m):
    assert omega_grade(n * m) == omega_grade(n) + omega_grade(m)


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


# big n: Miller-Rabin and Pollard rho above the trial-division range, with
# plain trial division (below) as the independent oracle


def trial_factor(n):
    out = []
    p = 2
    while p * p <= n:
        r = 0
        while n % p == 0:
            n //= p
            r += 1
        if r:
            out.append((p, r))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def trial_is_prime(n):
    return n >= 2 and trial_factor(n) == ((n, 1),)


def test_factorize_agrees_with_trial_division_to_20000():
    assert all(factorize(n) == trial_factor(n) for n in range(1, 20_001))


def test_factorize_agrees_with_trial_division_on_a_sample_below_1e7():
    rng = random.Random(20240611)
    for n in [rng.randrange(1, 10**7) for _ in range(400)]:
        assert factorize(n) == trial_factor(n)


def test_is_prime_agrees_with_trial_division():
    rng = random.Random(7)
    sample = list(range(0, 3000)) + [rng.randrange(10**6, 10**7) for _ in range(300)]
    assert all(is_prime(n) == trial_is_prime(n) for n in sample)


P1, P2, P3 = 999_983, 1_000_003, 9_999_991  # primes near 10**6 and 10**7


@pytest.mark.parametrize("p, q", [(P1, P2), (P1, P3), (P2, P3), (999_979, 1_000_033)])
def test_factorize_splits_large_semiprimes(p, q):
    assert trial_is_prime(p) and trial_is_prime(q)
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_factorize_prime_powers_near_a_million():
    assert factorize(P1**2) == ((P1, 2),)
    assert factorize(P2**3) == ((P2, 3),)
    assert factorize(P1**2 * P2) == ((P1, 2), (P2, 1))
    assert factorize(2**5 * P1**3) == ((2, 5), (P1, 3))


def test_factorize_carmichael_numbers():
    # Chernick numbers (6k+1)(12k+1)(18k+1): every factor is above the
    # trial-division range, and each number is a Fermat pseudoprime to
    # every coprime base, so only the strong test and rho see through it
    for k in (195, 206, 216):
        ps = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(trial_is_prime(p) for p in ps)
        n = math.prod(ps)
        assert pow(2, n - 1, n) == 1
        assert not is_prime(n)
        assert factorize(n) == tuple((p, 1) for p in ps)
    for n in (561, 41041, 825265, 321197185, 5394826801):
        assert factorize(n) == trial_factor(n)


def test_strong_pseudoprimes_are_composite():
    # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(3215031751)
    assert factorize(3215031751) == ((151, 1), (751, 1), (28351, 1))
    # ... to every prime base up to 23, and up to 37
    assert not is_prime(3825123056546413051)
    assert factorize(3825123056546413051) == ((149491, 1), (747451, 1), (34233211, 1))
    assert not is_prime(318665857834031151167461)
    # the least strong pseudoprime to every prime base up to 41
    assert not is_prime(3317044064679887385961981)


def test_large_primes():
    for p in (10**18 + 9, 2**61 - 1, 2**89 - 1):
        assert is_prime(p)
        assert factorize(p) == ((p, 1),)
    assert factorize(2**64 + 1) == ((274177, 1), (67280421310721, 1))


def test_rho_gives_up_with_a_value_error_after_its_budget(monkeypatch):
    # two primes near 10**8 need about 10**4 rho steps; allow 2**10
    p, q = 100_000_007, 100_000_037
    assert trial_is_prime(p) and trial_is_prime(q)
    monkeypatch.setattr(nat, "_RHO_BUDGET", 1 << 10)
    factorize.cache_clear()
    with pytest.raises(ValueError, match=f"cannot factor {p * q}"):
        factorize(p * q)
    monkeypatch.undo()
    assert factorize(p * q) == ((p, 1), (q, 1))


@pytest.mark.parametrize("n, want", [
    ((10**18 + 3) ** 2, ((10**18 + 3, 2),)),
    ((10**18 + 3) ** 3, ((10**18 + 3, 3),)),
    ((10**18 + 3) ** 5, ((10**18 + 3, 5),)),
    (3 * (10**18 + 3) ** 2, ((3, 1), (10**18 + 3, 2))),
    (P2**7, ((P2, 7),)),
])
def test_perfect_powers_of_large_primes_skip_rho(monkeypatch, n, want):
    # rho on p**k needs about sqrt(p) steps: 10**9 here, far over budget
    def no_rho(x):
        raise AssertionError(f"rho called on {x}")

    monkeypatch.setattr(nat, "_rho_brent", no_rho)
    factorize.cache_clear()
    assert factorize(n) == want


def test_power_root_refuses_non_powers():
    p, q = 10**18 + 3, 10**18 + 9
    assert nat._power_root(p * q) == 0
    assert nat._power_root(p**2 * q) == 0
    assert nat._power_root(p**2 - 1) == nat._power_root(p**2 + 1) == 0
    assert nat._power_root(P2**6) in (P2, P2**2, P2**3)
