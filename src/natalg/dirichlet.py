"""The divisor-splitting convolution structure on positive integers.

Divisor coproducts (plain and multinomially weighted), the Moebius antipode,
arithmetic functions with Dirichlet convolution and inversion, the 1- and
2-cochain calculus, division/derivation branchings, the sharp divided-power
product, and the per-prime exponentiation bridge to the additive structure.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from typing import Callable

from .linear import LinComb, Scalar, exact_div, normalize, triangular_solve
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
    """A function on positive integers with a value store and convolution algebra.

    The evaluator must be total and deterministic; values are memoized as
    exact scalars (int when integral, else Fraction).  f(1..N) is held in one
    list, indexed from 1, that values() extends in bulk; an isolated n beyond
    it is evaluated on its own and kept in a dict until the list reaches it.
    Multiplicativity is checked on a range by the is_* methods, not declared.
    """

    def __init__(self, fn: Callable[[int], Scalar], name: str = "?"):
        self._fn = fn
        self.name = name
        self._vals: list[Scalar] = [0]  # f(1..len-1); index 0 unused
        self._cache: dict[int, Scalar] = {}  # isolated n >= len(_vals)
        self._inverse: "ArithFn | None" = None
        self._inverts: "ArithFn | None" = None  # the function values() solves this one from

    def __call__(self, n: int) -> Scalar:
        if 0 < n < len(self._vals):
            return self._vals[n]
        v = self._cache.get(n)
        if v is None:  # only n >= 1 is ever stored, so a hit needs no check
            _check_positive(n)
            v = self._cache[n] = normalize(self._fn(n))
        return v

    def values(self, upto: int) -> list[Scalar]:
        """f(1), ..., f(upto), as a copy.  The list is extended to upto first:
        an inverse solves the new stretch by push_inverse, any other function
        evaluates it; either way a value held in the dict moves to the list."""
        vals, cache = self._vals, self._cache
        new = range(len(vals), upto + 1)
        if self._inverts is None:
            vals.extend(cache.pop(n) if n in cache else normalize(self._fn(n)) for n in new)
        elif new:
            push_inverse([0] + self._inverts.values(upto), vals, upto)
            if cache:
                for n in new:
                    cache.pop(n, None)
        return vals[1:upto + 1] if upto > 0 else []

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
        in bulk by push_inverse, extending the inverse's own list."""
        if self._inverse is not None:
            return self._inverse
        f, f1 = self, self(1)
        if f1 == 0:
            raise ValueError(f"{self.name} has value 0 at 1 and is not invertible")
        inv = ArithFn(lambda n: exact_div(-sum(f(d) * inv(n // d) for d in divisors(n) if d > 1), f1),
                      name=f"{self.name}^-1")
        inv._vals.append(exact_div(1, f1))
        inv._inverse, inv._inverts = self, self
        self._inverse = inv
        return inv

    def __repr__(self) -> str:
        return f"ArithFn({self.name})"


zeta = ArithFn(lambda n: 1, "zeta")
moebius_fn = ArithFn(moebius, "moebius")
identity_fn = ArithFn(lambda n: n, "identity")
liouville = ArithFn(lambda n: (-1) ** omega_grade(n), "liouville")
unit_fn = ArithFn(lambda n: 1 if n == 1 else 0, "unit")
# mu is zeta's inverse: a range of mu is solved from zeta by push_inverse, an
# isolated mu(n) keeps the closed form, and zeta is never solved from mu
zeta._inverse, moebius_fn._inverse, moebius_fn._inverts = moebius_fn, zeta, zeta


def id_power(k: int) -> ArithFn:
    """n -> n^k, completely multiplicative for every fixed k >= 0."""
    return ArithFn(lambda n: n**k, f"id^{k}")


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
    Each g(n) is appended as it is solved, so a solve cut short leaves g a
    shorter prefix of solved values, never a placeholder.  Zeros of f and g
    are skipped; values stay int while f(1) divides them.
    """
    done = len(g) - 1
    f1 = f[1]
    acc = [0] * (upto + 1)
    for n in range(1, upto + 1):
        if n > done:  # then n == len(g): g holds solved values only
            g.append(gn := exact_div((1 if n == 1 else 0) - acc[n], f1))
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


def _weight(*parts: int) -> int:
    """w(n) = prod_p r_p! for n = prod_p p^r_p, n the product of the parts:
    renormalization is the diagonal rescaling by w.  Each part is factorized
    on its own, so a product of large primes is never factorized whole."""
    r: dict[int, int] = {}
    for part in parts:
        for p, e in factorize(part):
            r[p] = r.get(p, 0) + e
    return math.prod(map(math.factorial, r.values()))


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

    The plain (r-1)-fold split of p^r, each tuple rescaled by
    w(p^r) / prod w(leg), the multinomial r!/(s_1! ... s_r!).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("need r >= 1")
    splits = [(p**r,)]
    for _ in range(r - 1):
        splits = [(d, legs[0] // d) + legs[1:] for legs in splits for d in divisors(legs[0])]
    total = _weight(p**r)
    return LinComb({legs: total // math.prod(map(_weight, legs)) for legs in splits})


def antipode_mul(n: int, check: bool = True) -> int:
    """Antipode of the divisor coproduct: n * mu(n).

    With check=True (default) the closed form is verified against the
    defining recursion S * id = epsilon, whose solution is identity_fn's
    inverse.  n inside the list that identity_fn.inverse().values solves in
    bulk is read from it, so bulk sweeps stay cheap; n beyond it, such as a
    large semiprime, is pulled on its own through its divisors.
    """
    _check_positive(n)
    closed = n * moebius(n)
    if check and identity_fn.inverse()(n) != closed:
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
    """Table of the legwise-convolution inverse of c on 1..upto squared.

    c is read once per argument pair, upto**2 calls in all, before the solve
    (linear.triangular_solve: row (n, m) is c shifted to (n*d, m*l))."""
    c11 = normalize(c(1, 1))
    if c11 == 0:
        raise ValueError("2-cochain with c(1,1) = 0 is not invertible")
    args = range(1, upto + 1)
    cv = [None] + [[None] + [c11 if d == l == 1 else normalize(c(d, l)) for l in args] for d in args]

    def row(k):
        n, m = k
        return (((n * d, m * l), cv[d][l]) for d in range(1, upto // n + 1) for l in range(1, upto // m + 1))

    return triangular_solve({(1, 1): 1} if upto > 0 else {}, itertools.product(args, args), row, c11)


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

    The coefficient is w(nm) / (w(n) w(m)), that is prod_i C(r_i + s_i, r_i)
    over the shared prime support.
    """
    _check_positive(n)
    _check_positive(m)
    return _weight(n, m) // (_weight(n) * _weight(m)), n * m


# ---------------------------------------------------------------------------
# the weighted pairing


def pairing_unrenorm(n: int, m: int) -> int:
    """Diagonal pairing: w(n) = prod_i r_i! when n = m, zero otherwise."""
    _check_positive(n)
    _check_positive(m)
    return _weight(n) if n == m else 0


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
