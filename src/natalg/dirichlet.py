"""The divisor-splitting convolution structure on positive integers.

Divisor coproducts (plain and multinomially weighted), the Moebius antipode,
arithmetic functions with Dirichlet convolution and inversion, the 1- and
2-cochain calculus, division/derivation branchings, the sharp divided-power
product, and the per-prime exponentiation bridge to the additive structure.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable

from .linear import LinComb, Scalar, exact_div, normalize
from .nat import divisors, factorize, is_prime, moebius, omega_grade

__all__ = [
    "ArithFn",
    "zeta",
    "moebius_fn",
    "identity_fn",
    "id_power",
    "liouville",
    "unit_fn",
    "coproduct_mul",
    "coproduct_mul_proper",
    "coproduct_mul_unrenorm",
    "coproduct_mul_unrenorm_iterated",
    "counit_mul",
    "moebius",
    "dirichlet_convolve",
    "dirichlet_inverse",
    "push_inverse",
    "antipode_mul",
    "antipode_unrenorm",
    "coboundary2_mul",
    "pointwise_coboundary2",
    "two_cochain_convolve",
    "two_cochain_inverse",
    "branch_divide",
    "branch_derive",
    "sharp_multiply",
    "pairing_unrenorm",
    "pairing_unrenorm_laplace",
    "check_exponentiation_relation",
    "bialgebra_counterexample",
]


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"multiplicative operations need n >= 1, got {n}")


# ---------------------------------------------------------------------------
# arithmetic functions


class ArithFn:
    """A function on positive integers with a value cache and convolution algebra.

    The evaluator must be total and deterministic; values are memoized as
    exact scalars (int when integral, else Fraction).  The multiplicativity
    hints are advisory labels, checkable via the is_* methods.
    """

    def __init__(self, fn: Callable[[int], Scalar], name: str = "?",
                 multiplicative: bool | None = None,
                 completely_multiplicative: bool | None = None):
        self._fn = fn
        self.name = name
        self.multiplicative = multiplicative
        self.completely_multiplicative = completely_multiplicative
        self._cache: dict[int, Scalar] = {}
        self._inverse: "ArithFn | None" = None
        # set on a function made by inverse(): the function it inverts, and
        # the n through which the bulk solve in values() has filled the cache
        self._inverts: "ArithFn | None" = None
        self._filled = 0

    def __call__(self, n: int) -> Scalar:
        _check_positive(n)
        v = self._cache.get(n)
        if v is None:
            v = self._cache[n] = normalize(self._fn(n))
        return v

    def values(self, upto: int) -> list[Scalar]:
        """f(1), ..., f(upto).  An inverse solves the missing stretch in bulk,
        extending the stretch an earlier call solved."""
        cache = self._cache
        if self._inverts is not None and upto > self._filled:
            known = [0] + [cache[n] for n in range(1, self._filled + 1)]
            g = push_inverse([0] + self._inverts.values(upto), known, upto)
            for n in range(self._filled + 1, upto + 1):
                cache[n] = g[n]
            self._filled = upto
        out = []
        for n in range(1, upto + 1):
            v = cache.get(n)
            if v is None:
                v = cache[n] = normalize(self._fn(n))
            out.append(v)
        return out

    def is_multiplicative(self, upto: int) -> bool:
        return all(
            self(n * m) == self(n) * self(m)
            for n in range(1, upto + 1)
            for m in range(n, upto + 1)
            if math.gcd(n, m) == 1
        )

    def is_completely_multiplicative(self, upto: int) -> bool:
        return all(
            self(n * m) == self(n) * self(m)
            for n in range(1, upto + 1)
            for m in range(n, upto + 1)
        )

    def inverse(self) -> "ArithFn":
        """Convolutive inverse.  A single value is pulled through the
        triangular recursion over divisors; values() solves a whole stretch
        by push_inverse."""
        if self._inverse is not None:
            return self._inverse
        f, f1 = self, self(1)
        if f1 == 0:
            raise ValueError(f"{self.name} has value 0 at 1 and is not invertible")

        def g(n: int) -> Scalar:
            v = cache.get(n)
            if v is None:
                acc = 0
                for d in divisors(n):
                    if d > 1:
                        acc += f(d) * g(n // d)
                v = cache[n] = exact_div(-acc, f1)
            return v

        inv = ArithFn(g, name=f"{self.name}^-1")
        cache = inv._cache
        cache[1] = exact_div(1, f1)
        inv._inverse, inv._inverts = self, self
        self._inverse = inv
        return inv

    def __repr__(self) -> str:
        return f"ArithFn({self.name})"


zeta = ArithFn(lambda n: 1, "zeta", multiplicative=True,
               completely_multiplicative=True)
moebius_fn = ArithFn(moebius, "moebius", multiplicative=True,
                     completely_multiplicative=False)
identity_fn = ArithFn(lambda n: n, "identity", multiplicative=True,
                      completely_multiplicative=True)
liouville = ArithFn(lambda n: (-1) ** omega_grade(n), "liouville",
                    multiplicative=True, completely_multiplicative=True)
unit_fn = ArithFn(lambda n: 1 if n == 1 else 0, "unit", multiplicative=True)


def id_power(k: int) -> ArithFn:
    """n -> n^k, completely multiplicative for every fixed k >= 0."""
    return ArithFn(lambda n: n**k, f"id^{k}", multiplicative=True,
                   completely_multiplicative=True)


def dirichlet_convolve(f: Callable[[int], Scalar], g: Callable[[int], Scalar],
                       n: int) -> Scalar:
    _check_positive(n)
    return normalize(sum(normalize(f(d)) * normalize(g(n // d)) for d in divisors(n)))


def push_inverse(f: list[Scalar], g: list[Scalar], upto: int) -> list[Scalar]:
    """Extend g, the Dirichlet inverse of f, to g(1..upto) in place.

    Both lists are indexed from 1 (index 0 unused).  f holds f(1..upto) with
    f(1) != 0, g holds the inverse's known prefix g(1..len(g)-1), possibly
    empty.  Instead of pulling the divisors of each n, every solved g(n) is
    pushed onto its multiples, acc[n*k] += f(k) * g(n), so by the time the
    loop reaches n its sum is complete and g(n) = ([n = 1] - acc[n]) / f(1).
    Zeros of f and g are skipped; values stay int while f(1) divides them.
    """
    done = len(g) - 1
    f1 = f[1]
    acc = [0] * (upto + 1)
    g.extend([0] * (upto - done))
    for n in range(1, upto + 1):
        if n > done:
            g[n] = gn = exact_div((1 if n == 1 else 0) - acc[n], f1)
            lo = 2
        else:
            gn = g[n]
            lo = done // n + 1  # multiples at or below done are solved already
        hi = upto // n
        if gn and lo <= hi:
            for t, fk in zip(range(lo * n, upto + 1, n), f[lo:hi + 1]):
                if fk:
                    acc[t] += fk * gn
    return g


def dirichlet_inverse(f: ArithFn | Callable[[int], Scalar],
                      upto: int = 0) -> ArithFn:
    """Convolutive inverse of f; with upto > 0 the first values are forced now."""
    if not isinstance(f, ArithFn):
        f = ArithFn(f)
    g = f.inverse()
    if upto:
        g.values(upto)
    return g


# ---------------------------------------------------------------------------
# coproducts, counit, antipodes


def coproduct_mul(n: int) -> LinComb:
    """Sum over divisor splits d * (n/d), keys (d, n/d), coefficient 1 each."""
    _check_positive(n)
    return LinComb({(d, n // d): 1 for d in divisors(n)})


def coproduct_mul_proper(n: int) -> LinComb:
    """coproduct_mul minus the unit-bearing terms 1*n and n*1."""
    _check_positive(n)
    return LinComb({(d, n // d): 1 for d in divisors(n) if 1 < d < n})


def counit_mul(n: int) -> int:
    _check_positive(n)
    return 1 if n == 1 else 0


def _unrenorm_terms(n: int) -> dict[tuple[int, int], int]:
    """The weighted coproduct of n as a plain dict: weight prod_i C(r_i, s_i)
    on the key (prod p_i^s_i, prod p_i^(r_i-s_i))."""
    terms = {(1, 1): 1}
    for p, r in factorize(n):
        terms = {(a * p**s, b * p ** (r - s)): w * math.comb(r, s)
                 for (a, b), w in terms.items() for s in range(r + 1)}
    return terms


def coproduct_mul_unrenorm(n: int) -> LinComb:
    """Exponent-split coproduct with binomial weights, multiplicative across
    primes: weight prod_i C(r_i, s_i) on the key (prod p_i^s_i, prod p_i^(r_i-s_i)).
    """
    _check_positive(n)
    return LinComb(_unrenorm_terms(n))


def coproduct_mul_unrenorm_iterated(p: int, r: int) -> LinComb:
    """(r-1)-fold iteration of the weighted coproduct on p^r, as r-leg tuples.

    Built by repeatedly splitting the first leg; weights multiply into the
    multinomial r!/(s_1! ... s_r!) on the fully split term.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("need r >= 1")
    out = LinComb.single((p**r,))
    for _ in range(r - 1):
        expanded: dict = {}
        for legs, c in out:
            head = legs[0]
            e = factorize(head)[0][1] if head > 1 else 0
            for s in range(e + 1):
                key = (p**s, p ** (e - s)) + legs[1:]
                expanded[key] = expanded.get(key, 0) + c * math.comb(e, s)
        out = LinComb(expanded)
    return out


@cache
def _antipode_mul_rec(n: int) -> int:
    # triangular solve of sum_{d|n} S(d)*(n/d) = delta_{1,n}
    if n == 1:
        return 1
    return -sum(_antipode_mul_rec(d) * (n // d) for d in divisors(n) if d < n)


def antipode_mul(n: int, check: bool = True) -> int:
    """Antipode of the divisor coproduct: n * mu(n).

    With check=True (default) the closed form is verified against the
    defining recursion on every call; the recursion is memoized so bulk
    sweeps stay cheap.
    """
    _check_positive(n)
    closed = n * moebius(n)
    if check and _antipode_mul_rec(n) != closed:
        raise AssertionError(f"antipode recursion mismatch at {n}")
    return closed


@cache
def _antipode_unrenorm_rec(n: int) -> int:
    # same triangular solve against the weighted coproduct
    if n == 1:
        return 1
    return -sum(w * _antipode_unrenorm_rec(a) * b
                for (a, b), w in _unrenorm_terms(n).items() if a != n)


def antipode_unrenorm(n: int, check: bool = True) -> int:
    """Antipode of the weighted coproduct: (-1)^Omega(n) * n; involutive."""
    _check_positive(n)
    closed = (-1) ** omega_grade(n) * n
    if check and _antipode_unrenorm_rec(n) != closed:
        raise AssertionError(f"weighted antipode recursion mismatch at {n}")
    return closed


# ---------------------------------------------------------------------------
# cochain calculus


def coboundary2_mul(phi: ArithFn, n: int, m: int) -> Scalar:
    """Second coboundary of a 1-cochain under the convolution complex:

        sum over d|n, l|m of phi(d) phi(l) phi_inv((n/d)(m/l)).
    """
    _check_positive(n)
    _check_positive(m)
    inv = phi.inverse()
    total = 0
    for d in divisors(n):
        pd = phi(d)
        if pd == 0:
            continue
        a = n // d
        for l in divisors(m):
            pl = phi(l)
            if pl == 0:
                continue
            total += pd * pl * inv(a * (m // l))
    return normalize(total)


def pointwise_coboundary2(phi: ArithFn, n: int, m: int) -> Scalar:
    """Group-style coboundary phi(n)phi(m) - phi(nm); identically zero
    exactly when phi is completely multiplicative."""
    _check_positive(n)
    _check_positive(m)
    return normalize(phi(n) * phi(m) - phi(n * m))


TwoCochain = Callable[[int, int], Scalar]


def two_cochain_convolve(c: TwoCochain, cp: TwoCochain, n: int, m: int) -> Scalar:
    """Legwise convolution of two 2-cochains through the divisor coproduct."""
    _check_positive(n)
    _check_positive(m)
    return normalize(sum(normalize(c(d, l)) * normalize(cp(n // d, m // l))
                         for d in divisors(n) for l in divisors(m)))


def two_cochain_inverse(c: TwoCochain, upto: int) -> dict[tuple[int, int], Scalar]:
    """Table of the legwise-convolution inverse of c on 1..upto squared."""
    c11 = normalize(c(1, 1))
    if c11 == 0:
        raise ValueError("2-cochain with c(1,1) = 0 is not invertible")
    inv: dict[tuple[int, int], Scalar] = {}
    for n in range(1, upto + 1):
        for m in range(1, upto + 1):
            acc = 1 if n == 1 and m == 1 else 0
            for d in divisors(n):
                for l in divisors(m):
                    if d == 1 and l == 1:
                        continue
                    acc -= normalize(c(d, l)) * inv[(n // d, m // l)]
            inv[(n, m)] = exact_div(acc, c11)
    return inv


# ---------------------------------------------------------------------------
# branchings and the sharp product


def branch_divide(b: int, n: int) -> int:
    """Division branching: n/b when b divides n, else the projection to 0."""
    _check_positive(b)
    _check_positive(n)
    return n // b if n % b == 0 else 0


def branch_derive(p: int, n: int) -> LinComb:
    """Derivation branching by a prime: r * (n/p) when p^r || n, else zero."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_positive(n)
    if n % p:
        return LinComb.zero()
    r = dict(factorize(n))[p]
    return LinComb.single(n // p, r)


def sharp_multiply(n: int, m: int) -> tuple[int, int]:
    """Divided-power product on the sharp basis: returns (coefficient, n*m).

    The coefficient is prod_i C(r_i + s_i, r_i) over the shared prime support.
    """
    _check_positive(n)
    _check_positive(m)
    rn = dict(factorize(n))
    rm = dict(factorize(m))
    coeff = 1
    for p in set(rn) | set(rm):
        coeff *= math.comb(rn.get(p, 0) + rm.get(p, 0), rn.get(p, 0))
    return coeff, n * m


# ---------------------------------------------------------------------------
# the weighted pairing


def pairing_unrenorm(n: int, m: int) -> int:
    """Diagonal pairing: prod_i r_i! when n = m, zero otherwise."""
    _check_positive(n)
    _check_positive(m)
    if n != m:
        return 0
    return math.prod(math.factorial(r) for _, r in factorize(n))


@cache
def pairing_unrenorm_laplace(n: int, m: int) -> int:
    """Same pairing, computed by peeling one prime off the left argument and
    expanding the right argument through the weighted coproduct.
    """
    _check_positive(n)
    _check_positive(m)
    if n == 1:
        return 1 if m == 1 else 0
    if is_prime(n):
        return 1 if m == n else 0
    p = factorize(n)[0][0]
    rest = n // p
    return sum(w * pairing_unrenorm_laplace(rest, b)
               for (a, b), w in _unrenorm_terms(m).items() if a == p)


# ---------------------------------------------------------------------------
# structure checks


def check_exponentiation_relation(n: int) -> bool:
    """Both divisor coproducts arise by exponentiating per-prime splits of the
    exponents: plain splits give the unweighted one, binomial splits the
    weighted one.  True iff both reconstructions match.
    """
    _check_positive(n)
    plain = LinComb.single((1, 1))
    weighted = LinComb.single((1, 1))
    join = lambda a, b: LinComb.single((a[0] * b[0], a[1] * b[1]))
    for p, r in factorize(n):
        plain_block = LinComb({(p**s, p ** (r - s)): 1 for s in range(r + 1)})
        weighted_block = LinComb(
            {(p**s, p ** (r - s)): math.comb(r, s) for s in range(r + 1)}
        )
        plain = plain.bilinear(plain_block, join)
        weighted = weighted.bilinear(weighted_block, join)
    return plain == coproduct_mul(n) and weighted == coproduct_mul_unrenorm(n)


def bialgebra_counterexample() -> tuple[LinComb, LinComb, bool]:
    """The divisor coproduct is not an algebra map: splitting 4 directly gives
    the pair (2,2) once, while splitting 2 twice and recombining gives it
    twice.  Returns (direct, recombined, equal=False).
    """
    lhs = coproduct_mul(4)
    c2 = coproduct_mul(2)
    rhs = c2.bilinear(c2, lambda a, b: LinComb.single((a[0] * b[0], a[1] * b[1])))
    return lhs, rhs, lhs == rhs
