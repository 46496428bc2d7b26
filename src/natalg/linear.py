"""Finite linear combinations with exact coefficients: int when integral,
else Fraction (see `normalize`).

One dict-backed class serves every layer: tensor pairs and tuples of ints,
partitions, normal-ordered operator words, plain ints, and monomials (the
subclass witt.MultiPoly; the operators build type(self)).  Keys must be
hashable; zero coefficients are never stored, so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterator

Scalar = int | Fraction

# normalize, exact_div and triangular_solve, the helpers of the int-first
# layers, run inside their callers' loops and solves; they stay out of
# __all__ so that bench/layertrace.py counts their time in their callers.
__all__ = ["LinComb"]


def normalize(c) -> Scalar:
    """The exact scalar for c: an integral value as int, any other as Fraction.

    Fraction(k, 1) folds to k; floats, Decimals and strings convert exactly
    (normalize(0.5) is Fraction(1, 2)), so no float ever comes back.
    """
    if type(c) is int:
        return c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def exact_div(a, b: Scalar):
    """a / b in exact arithmetic: an int when the quotient is integral, and a
    LinComb (a polynomial) divided coefficientwise."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    if isinstance(a, LinComb):
        return a.scale(exact_div(1, b))
    return normalize(Fraction(a) / Fraction(b))


def triangular_solve(x, order, expand, lead: Scalar = 1) -> dict:
    """The coefficients a with x = sum over k in order of a[k] * row(k).

    expand(k) yields row k's (key, entry) pairs: its entry at k is lead, which
    is skipped, and its other keys come later in order.  Every k gets a[k] =
    exact_div(remainder at k, lead), zeros included, which is then pushed
    along row k.  Raises ArithmeticError when x is not in the rows' span.
    """
    rem = dict(x)
    out = {}
    for k in order:
        out[k] = c = exact_div(rem.pop(k, 0), lead)
        if c:
            for j, e in expand(k):
                if j != k:
                    rem[j] = rem.get(j, 0) - c * e
    left = {k: v for k, v in rem.items() if v}
    if left:
        raise ArithmeticError(f"triangular solve left a remainder: {left}")
    return out


class LinComb:
    """Immutable-by-convention mapping basis-key -> nonzero exact scalar."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Any, Scalar] | None = None):
        clean: dict[Any, Scalar] = {}
        if terms:
            for k, c in terms.items():
                c = normalize(c)
                if c:
                    clean[k] = c
        self.terms = clean

    @classmethod
    def single(cls, key: Any, coeff: Scalar = 1) -> "LinComb":
        return cls({key: coeff})

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    def __iter__(self) -> Iterator[tuple[Any, Scalar]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __getitem__(self, key: Any) -> Scalar:
        return self.terms.get(key, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __sub__(self, other: "LinComb") -> "LinComb":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return type(self)(out)

    def __neg__(self) -> "LinComb":
        return type(self)({k: -c for k, c in self.terms.items()})

    def scale(self, c: Scalar) -> "LinComb":
        c = normalize(c)
        if not c:
            return type(self)()
        return type(self)({k: v * c for k, v in self.terms.items()})

    __rmul__ = scale

    def map_keys(self, fn: Callable[[Any], Any]) -> "LinComb":
        """Relabel basis keys, merging collisions."""
        out: dict[Any, Scalar] = {}
        for k, c in self.terms.items():
            nk = fn(k)
            out[nk] = out.get(nk, 0) + c
        return LinComb(out)

    def bilinear(self, other: "LinComb",
                 prod: Callable[[Any, Any], "LinComb"]) -> "LinComb":
        """Extend a basis-level product (returning a LinComb) bilinearly."""
        out: dict[Any, Scalar] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                for k, c in prod(ka, kb).terms.items():
                    out[k] = out.get(k, 0) + ca * cb * c
        return type(self)(out)

    def sorted_terms(self, key: Callable[[Any], Any] | None = None):
        return sorted(self.terms.items(), key=(lambda kv: key(kv[0])) if key else None)

    def __repr__(self) -> str:
        if not self.terms:
            return "LinComb(0)"
        parts = []
        for k, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            parts.append(f"{c}*{k!r}")
        return "LinComb(" + " + ".join(parts) + ")"
