"""Nonnegative-integer substrate: factorization, divisors, grading.

Plain Python ints are the value type (they are already arbitrary precision);
this module only adds the multiplicative bookkeeping every other layer leans
on.  Everything multiplicative is indexed from 1, so n = 0 is rejected there.
"""

from __future__ import annotations

import math
from functools import cache

__all__ = [
    "factorize",
    "divisors",
    "omega_grade",
    "gcd",
    "is_prime",
    "moebius",
    "moebius_sieve",
]

# Trial division tries the primes below this bound; a cofactor left below its
# square is prime.  Larger cofactors go to Miller-Rabin and Pollard rho.
_TRIAL_BOUND = 1_000

# Miller-Rabin on the primes up to 41 is proven correct for every n below
# _MR_PROVEN_BELOW, itself the least composite passing it (Sorenson and
# Webster, 2015).  From there on the primes up to 97 are used: a strong
# probable-prime test that no composite is known to pass, but not a proof.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981
_MR_MORE_BASES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")


@cache
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p1, r1), (p2, r2), ...), p1 < p2 < ...

    factorize(1) is the empty tuple.  Trial division by the primes below
    _TRIAL_BOUND settles every n below _TRIAL_BOUND**2; a larger cofactor is
    tested by Miller-Rabin and split by Pollard rho.  The cache makes
    repeated lookups (ubiquitous in the convolution code) cheap.
    """
    _check_positive(n)
    out, m, p = _trial_divide(n)
    if m >= p * p:
        counts: dict[int, int] = {}
        for q in _large_prime_factors(m):
            counts[q] = counts.get(q, 0) + 1
        out += counts.items()
    elif m > 1:
        out.append((m, 1))
    out.sort()
    return tuple(out)


def _trial_divide(m: int) -> tuple[list[tuple[int, int]], int, int]:
    """Divide out the primes below min(_TRIAL_BOUND, sqrt(m)).

    Returns the prime powers found, the cofactor, and a bound p below which
    the cofactor has no prime factor, so a cofactor below p*p is 1 or prime.
    """
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if m % p == 0:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            out.append((p, r))
    # wheel over 6k+-1
    p = 5
    while p < _TRIAL_BOUND and p * p <= m:
        for q in (p, p + 2):
            if m % q == 0:
                r = 0
                while m % q == 0:
                    m //= q
                    r += 1
                out.append((q, r))
        p += 6
    return out, m, p


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 97: a proof below _MR_PROVEN_BELOW."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES if n < _MR_PROVEN_BELOW else _MR_BASES + _MR_MORE_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_brent(n: int) -> int:
    """A nontrivial factor of the odd composite n: Pollard rho with Brent's
    cycle search and batched gcds (Brent, "An improved Monte Carlo
    factorization algorithm", 1980).  The maps x -> x^2 + c are tried for
    c = 1, 2, ... from the start value 2, so the result is deterministic."""
    batch = 128
    c = 0
    while True:
        c += 1
        x = y = ys = 2
        r = q = g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch's product vanished mod n: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _large_prime_factors(m: int) -> list[int]:
    """The prime factors, with multiplicity, of an m that trial division
    below _TRIAL_BOUND left without small factors."""
    primes: list[int] = []
    todo = [m]
    while todo:
        x = todo.pop()
        if x < _TRIAL_BOUND * _TRIAL_BOUND or _strong_probable_prime(x):
            primes.append(x)
        else:
            d = _rho_brent(x)
            todo += (d, x // d)
    return primes


def is_prime(n: int) -> bool:
    """Trial division below _TRIAL_BOUND**2, Miller-Rabin above, as in factorize."""
    if n < _TRIAL_BOUND * _TRIAL_BOUND:
        if n < 2:
            return False
        f = factorize(n)
        return len(f) == 1 and f[0][1] == 1
    return all(n % p for p in _MR_BASES) and _strong_probable_prime(n)


@cache
def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n >= 1 in increasing order."""
    _check_positive(n)
    divs = [1]
    for p, r in factorize(n):
        divs = [d * p**k for d in divs for k in range(r + 1)]
    return tuple(sorted(divs))


def omega_grade(n: int) -> int:
    """Number of prime factors of n counted with multiplicity; 1 has grade 0."""
    _check_positive(n)
    return sum(r for _, r in factorize(n))


def gcd(n: int, m: int) -> int:
    return math.gcd(n, m)


def moebius(n: int) -> int:
    """1 on 1, (-1)^k on a product of k distinct primes, 0 on non-squarefree n."""
    _check_positive(n)
    fac = factorize(n)
    if any(r > 1 for _, r in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def moebius_sieve(limit: int) -> list[int]:
    """mu(1..limit) as a list indexed by n (index 0 unused).

    Linear sieve; used by the bulk inversion checks where per-value
    factorization would dominate the runtime.
    """
    mu = [0] * (limit + 1)
    if limit >= 1:
        mu[1] = 1
    primes: list[int] = []
    spf = [0] * (limit + 1)
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if p > spf[i] or i * p > limit:
                break
            spf[i * p] = p
            mu[i * p] = 0 if i % p == 0 else -mu[i]
    return mu
