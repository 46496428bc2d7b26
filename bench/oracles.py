"""Reference answers for the benchmark's correctness checks.

Nothing here imports natalg: every function is an independent route to a
value natalg computes (a sieve, a closed form, an explicit enumeration or a
ring-homomorphism property), so a check never calls the path it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import permutations

# ---------------------------------------------------------------------------
# integers


class Sieve:
    """Smallest-prime-factor table up to a limit, with the arithmetic
    functions the divisor-world checks need."""

    def __init__(self, limit: int):
        spf = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for m in range(p * p, limit + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        self.spf = spf

    def factor(self, n: int) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        while n > 1:
            p, r = self.spf[n], 0
            while n % p == 0:
                n //= p
                r += 1
            out.append((p, r))
        return out

    def mu(self, n: int) -> int:
        fac = self.factor(n)
        return 0 if any(r > 1 for _, r in fac) else (-1) ** len(fac)

    def big_omega(self, n: int) -> int:
        return sum(r for _, r in self.factor(n))

    def divisors(self, n: int) -> list[int]:
        divs = [1]
        for p, r in self.factor(n):
            divs = [d * p**k for d in divs for k in range(r + 1)]
        return divs


def trial_factor(n: int) -> list[tuple[int, int]]:
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
    return out


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def multinomial_weight(d: int, n: int) -> int:
    """prod_p C(v_p(n), v_p(d)): the weight of (d, n/d) in the weighted
    divisor coproduct."""
    w = 1
    for p, r in trial_factor(n):
        s = 0
        while d % p == 0:
            d //= p
            s += 1
        w *= math.comb(r, s)
    return w


def ordered_factorizations(upto: int) -> list[int]:
    """H(1..upto), index 0 unused: H(1) = 1, H(n) = sum of H(d), d | n, d < n."""
    h = [0] * (upto + 1)
    h[1] = 1
    for d in range(1, upto + 1):
        for m in range(2 * d, upto + 1, d):
            h[m] += h[d]
    return h


def mu_trial(n: int) -> int:
    fac = trial_factor(n)
    return 0 if any(r > 1 for _, r in fac) else (-1) ** len(fac)


def named_arith(name: str):
    """Plain evaluators for the CLI's named arithmetic functions."""
    if name == "zeta":
        return lambda n: 1
    if name == "moebius":
        return mu_trial
    if name == "identity":
        return lambda n: n
    if name == "liouville":
        return lambda n: (-1) ** sum(r for _, r in trial_factor(n))
    if name == "unit":
        return lambda n: 1 if n == 1 else 0
    k = int(name[2:])
    return lambda n: n**k


# ---------------------------------------------------------------------------
# partitions and symmetric functions


def partitions(n: int):
    """Partitions of n as descending tuples, iteratively."""
    if n == 0:
        yield ()
        return
    stack = [((), n, n)]
    while stack:
        prefix, rest, cap = stack.pop()
        if rest == 0:
            yield prefix
            continue
        for first in range(1, min(rest, cap) + 1):
            stack.append((prefix + (first,), rest - first, first))


def _mult_counts(lam) -> list[int]:
    counts: dict[int, int] = {}
    for p in lam:
        counts[p] = counts.get(p, 0) + 1
    return list(counts.values())


def m_at_ones(lam, k: int) -> int:
    """m_lam(1, ..., 1) with k ones: the number of distinct exponent vectors."""
    ell = len(lam)
    if ell > k:
        return 0
    out = math.perm(k, ell)
    for r in _mult_counts(lam):
        out //= math.factorial(r)
    return out


def s_at_ones(lam, k: int) -> Fraction:
    """s_lam(1, ..., 1) with k ones, by the hook-content formula."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    out = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j - 1) + (conj[j] - i - 1) + 1
            out *= Fraction(k + j - i, hook)
    return out


def monomial_product(lam, mu) -> dict[tuple[int, ...], int]:
    """m_lam * m_mu in the monomial basis, by multiplying explicit
    polynomials in len(lam) + len(mu) variables (enough for every monomial
    of the product)."""
    nv = max(len(lam) + len(mu), 1)
    pa = set(permutations(tuple(lam) + (0,) * (nv - len(lam))))
    pb = set(permutations(tuple(mu) + (0,) * (nv - len(mu))))
    out: dict[tuple[int, ...], int] = {}
    for ea in pa:
        for eb in pb:
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(e[i] >= e[i + 1] for i in range(nv - 1)):
                key = tuple(x for x in e if x)
                out[key] = out.get(key, 0) + 1
    return out


def monomial_product_size(lam, mu) -> int:
    nv = max(len(lam) + len(mu), 1)
    return m_at_ones(lam, nv) * m_at_ones(mu, nv)


@cache
def kostka(lam: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Semistandard tableaux of shape lam and the given content, by removing
    the cells holding the largest letter (a horizontal strip) one at a time."""
    if not content:
        return 1 if not lam else 0
    last, rest = content[-1], content[:-1]
    total = 0
    below = list(lam[1:]) + [0]

    def strips(i: int, left: int, shape: list[int]):
        nonlocal total
        if i == len(lam):
            if left == 0:
                total += kostka(tuple(p for p in shape if p), rest)
            return
        for keep in range(max(below[i], lam[i] - left), lam[i] + 1):
            strips(i + 1, left - (lam[i] - keep), shape + [keep])

    strips(0, last, [])
    return total


def schur_product(lam, mu) -> dict[tuple[int, ...], int]:
    """s_lam * s_mu in the Schur basis: expand both factors in the monomial
    basis with Kostka numbers, multiply there with explicit polynomials, then
    peel off leading terms in lexicographic order."""
    def s_in_m(shape):
        w = sum(shape)
        return {nu: kostka(tuple(shape), nu) for nu in partitions(w) if kostka(tuple(shape), nu)}

    prod: dict[tuple[int, ...], int] = {}
    for a, ca in s_in_m(lam).items():
        for b, cb in s_in_m(mu).items():
            for nu, c in monomial_product(a, b).items():
                prod[nu] = prod.get(nu, 0) + ca * cb * c
    out: dict[tuple[int, ...], int] = {}
    while any(prod.values()):
        lead = max(nu for nu, c in prod.items() if c)
        c = prod[lead]
        out[lead] = c
        for nu, k in s_in_m(lead).items():
            prod[nu] = prod.get(nu, 0) - c * k
    return out


def stirling2_table(n_max: int) -> list[list[int]]:
    s = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    s[0][0] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            s[n][k] = k * s[n - 1][k] + s[n - 1][k - 1]
    return s


# ---------------------------------------------------------------------------
# Witt coordinates


def ghost(w) -> list[Fraction]:
    ws = [Fraction(x) for x in w]
    return [
        sum((d * ws[d - 1] ** (n // d) for d in range(1, n + 1) if n % d == 0), Fraction(0))
        for n in range(1, len(ws) + 1)
    ]


def ghost_inverse(r) -> list[Fraction]:
    w: list[Fraction] = []
    for n in range(1, len(r) + 1):
        acc = Fraction(r[n - 1])
        for d in range(1, n):
            if n % d == 0:
                acc -= d * w[d - 1] ** (n // d)
        w.append(acc / n)
    return w


def witt_op(u, v, op: str) -> list[Fraction]:
    gu, gv = ghost(u), ghost(v)
    comb = [a + b for a, b in zip(gu, gv)] if op == "add" else [a * b for a, b in zip(gu, gv)]
    return ghost_inverse(comb)


def product_series(w) -> list[Fraction]:
    """e_1..e_N: coefficients of prod_d (1 - w_d (-t)^d), truncated at t^N."""
    n = len(w)
    coeffs = [Fraction(1)] + [Fraction(0)] * n
    for d in range(1, n + 1):
        factor = -Fraction(w[d - 1]) * (-1) ** d
        for k in range(n, d - 1, -1):
            coeffs[k] += coeffs[k - d] * factor
    return coeffs[1:]


def eval_poly(terms: dict, env: dict[str, int]) -> Fraction:
    """Evaluate {((var, exp), ...): coeff} at integer values."""
    total = Fraction(0)
    for mono, c in terms.items():
        term = Fraction(c)
        for var, e in mono:
            term *= env[var] ** e
        total += term
    return total


def parse_poly(text: str) -> dict:
    """Inverse of the CLI's polynomial rendering: '2*v2*w2 - v1^2*w2 + 3'."""
    terms: dict = {}
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        tok = tok.lstrip("-")
        coeff = Fraction(1)
        factors = []
        for f in tok.split("*"):
            if f[0].isdigit():
                coeff *= Fraction(f)
            else:
                var, _, e = f.partition("^")
                factors.append((var, int(e) if e else 1))
        terms[tuple(factors)] = sign * coeff
    return terms


# ---------------------------------------------------------------------------
# spectra


def poly_from_roots(roots) -> list[int]:
    """Ascending coefficients of prod (x - r)."""
    p = [1]
    for r in roots:
        p = [0] + p
        for i in range(len(p) - 1):
            p[i] -= r * p[i + 1]
    return p


def gram_b_blocks(cols) -> list[list[int]]:
    """Transpose-times-table of a recombination table: 1 exactly where two
    columns recombine to the same value.  cols are (value, label) pairs."""
    return [[1 if a == b else 0 for b, _ in cols] for a, _ in cols]


def add_table_cols(n: int) -> list[tuple[int, int]]:
    return [(i, s - i) for s in range(n + 1) for i in range(s, -1, -1)]


def mul_table_cols(n: int) -> list[tuple[int, int]]:
    return [(d, m // d) for m in range(1, n + 1) for d in range(m, 0, -1) if m % d == 0]
