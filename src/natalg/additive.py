"""The additive convolution structure on nonnegative integers.

Splitting coproducts (plain and binomially weighted), counit, antipode,
cochain calculus, truncated-subtraction branching, and the two
generating-function rings (Cauchy and binomial-weighted bases).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Literal

from .linear import LinComb, Scalar, normalize

__all__ = [
    "coproduct_add",
    "coproduct_add_proper",
    "coproduct_add_unrenorm",
    "counit_add",
    "antipode_add",
    "convolve_add",
    "cochain_inverse_add",
    "is_additive_cocycle",
    "branch_subtract",
    "derive_add",
    "additive_compat",
    "PowerSeries",
    "series_multiply",
]

Cochain = Callable[[int], Scalar]


def _check_nonneg(n: int) -> None:
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")


def coproduct_add(n: int) -> LinComb:
    """Sum of all splits r + (n-r), keys (r, n-r), each coefficient 1."""
    _check_nonneg(n)
    return LinComb({(r, n - r): 1 for r in range(n + 1)})


def coproduct_add_proper(n: int) -> LinComb:
    """coproduct_add without the two unit-bearing end terms; empty for n <= 1."""
    _check_nonneg(n)
    return LinComb({(r, n - r): 1 for r in range(1, n)})


def coproduct_add_unrenorm(n: int) -> LinComb:
    """Binomially weighted splits: C(n,r) on the key (r, n-r)."""
    _check_nonneg(n)
    return LinComb({(r, n - r): math.comb(n, r) for r in range(n + 1)})


def counit_add(n: int) -> int:
    _check_nonneg(n)
    return 1 if n == 0 else 0


def antipode_add(n: int) -> int:
    """Convolutive inverse of the identity: n -> -n (lands in signed ints)."""
    _check_nonneg(n)
    return -n


def convolve_add(f: Cochain, g: Cochain, n: int,
                 codomain: Literal["scalar", "monoid"] = "scalar") -> Scalar:
    """Convolution of two maps through the splitting coproduct.

    codomain="scalar": sum over splits of f(r)*g(n-r)  (scalar-valued maps);
    codomain="monoid": sum over splits of f(r)+g(n-r)  (endomaps composed
    through the addition monoid itself).
    """
    _check_nonneg(n)
    if codomain not in ("scalar", "monoid"):
        raise ValueError(f"unknown codomain product {codomain!r}")
    fs = [normalize(f(r)) for r in range(n + 1)]
    gs = [normalize(g(n - r)) for r in range(n + 1)]
    if codomain == "scalar":
        return normalize(sum(map(mul, fs, gs)))
    return normalize(sum(fs) + sum(gs))


def cochain_inverse_add(phi: Cochain) -> Cochain:
    """Inverse under monoid-valued convolution: simply the sign flip."""
    return lambda i: -normalize(phi(i))


def is_additive_cocycle(phi: Cochain, upto: int) -> bool:
    """True iff phi(n+m) = phi(n) + phi(m) on 0..upto, i.e. phi(n) = n*phi(1)."""
    return all(
        normalize(phi(n + m)) == normalize(phi(n)) + normalize(phi(m))
        for n in range(upto + 1)
        for m in range(n, upto + 1)
    )


def branch_subtract(b: int, n: int) -> int:
    """Truncated subtraction: n-b when n >= b, else the projection to 0."""
    _check_nonneg(b)
    _check_nonneg(n)
    return n - b if n >= b else 0


def derive_add(n: int) -> int:
    """The unique contraction: n -> n-1.  Rejects 0 (stays inside the monoid)."""
    if n < 1:
        raise ValueError("contraction is only defined for n >= 1")
    return n - 1


def additive_compat(n: int, m: int) -> tuple[LinComb, LinComb, bool]:
    """Compatibility witness: split n+m directly vs splitting n and m and
    recombining legwise.  The two disagree (multiplicities pile up on the
    recombined side), which is exactly the structural failure this package
    is organized around.
    """
    lhs = coproduct_add(n + m)
    rhs = coproduct_add(n).bilinear(
        coproduct_add(m),
        lambda a, b: LinComb.single((a[0] + b[0], a[1] + b[1])),
    )
    return lhs, rhs, lhs == rhs


class PowerSeries:
    """Truncated power series with exact (int or Fraction) coefficients.

    basis="ordinary": Cauchy product  h_n = sum f_r g_{n-r}.
    basis="divided":  weighted product h_n = sum C(n,r) f_r g_{n-r}.
    Equality ignores trailing zeros but never crosses basis tags.
    """

    __slots__ = ("coeffs", "basis")

    def __init__(self, coeffs, basis: Literal["ordinary", "divided"] = "ordinary"):
        if basis not in ("ordinary", "divided"):
            raise ValueError(f"unknown basis {basis!r}")
        self.coeffs = tuple(map(normalize, coeffs))
        self.basis = basis

    def _trimmed(self) -> tuple[Scalar, ...]:
        cs = self.coeffs
        k = len(cs)
        while k and cs[k - 1] == 0:
            k -= 1
        return cs[:k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.basis == other.basis and self._trimmed() == other._trimmed()

    def __hash__(self):
        raise TypeError("PowerSeries is not hashable")

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)}, basis={self.basis!r})"

    def to_ordinary(self) -> "PowerSeries":
        if self.basis == "ordinary":
            return self
        return PowerSeries(
            [Fraction(c, math.factorial(n)) for n, c in enumerate(self.coeffs)], "ordinary"
        )

    def to_divided(self) -> "PowerSeries":
        if self.basis == "divided":
            return self
        return PowerSeries(
            [c * math.factorial(n) for n, c in enumerate(self.coeffs)], "divided"
        )


def series_multiply(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Product in the shared basis, truncated to the shorter operand."""
    if f.basis != g.basis:
        raise ValueError("cannot multiply series with different basis tags")
    n = min(len(f.coeffs), len(g.coeffs))
    a, rev_b = f.coeffs[:n], g.coeffs[:n][::-1]
    out = []
    for k in range(n):
        terms = map(mul, a[:k + 1], rev_b[n - 1 - k:])  # f_r * g_(k-r), r = 0..k
        if f.basis == "divided":
            terms = map(mul, terms, (math.comb(k, r) for r in range(k + 1)))
        out.append(sum(terms))
    return PowerSeries(out, f.basis)
