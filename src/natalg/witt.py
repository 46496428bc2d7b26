"""Witt coordinates, ghost components, universal addition/multiplication
polynomials, lambda operations on integers, Adams operations, and the
conversion between Witt coordinates and the coefficients of the associated
truncated product series.

Everything is exact; MultiPoly is a LinComb over monomials, and the ghost
map and its inverse run on numbers and polynomials alike.  Numbers are
computed int-first (linear.normalize, linear.exact_div), and the public ring
functions and series conversions return them as Fraction.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable

from .linear import LinComb, Scalar, exact_div, normalize, triangular_solve
from .nat import divisors

__all__ = [
    "MultiPoly",
    "ghost",
    "ghost_sym",
    "ghost_inverse",
    "witt_add",
    "witt_mul",
    "universal_polys",
    "lambda_op",
    "lambda_iter_identity",
    "adams_op",
    "w_to_e",
    "e_to_w",
    "log_derivative_L",
]

Monomial = tuple[tuple[str, int], ...]  # sorted ((var, exp), ...)

_VAR_RE = re.compile(r"^([A-Za-z]+)(\d+)$")


@functools.lru_cache(maxsize=1024)
def _var_key(name: str) -> tuple[str, int]:
    m = _VAR_RE.match(name)
    if not m:
        return (name, 0)
    return (m.group(1), int(m.group(2)))


class MultiPoly(LinComb):
    """Sparse polynomial: a LinComb over monomials, with numbers lifted to
    constant polynomials by +, - and ==."""

    __slots__ = ()

    @classmethod
    def const(cls, c: Scalar) -> "MultiPoly":
        return cls({(): c})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls({((name, 1),): 1})

    def __eq__(self, other: object) -> bool:
        return super().__eq__(_lift(other))

    def __add__(self, other) -> "MultiPoly":
        return super().__add__(_lift(other))

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        return super().__sub__(_lift(other))

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self.bilinear(other, _merge)

    __rmul__ = __mul__

    def __truediv__(self, k: Scalar) -> "MultiPoly":
        return self.scale(1 / Fraction(k))

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative powers not supported")
        acc = MultiPoly.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def variables(self) -> set[str]:
        return {v for mono in self.terms for v, _ in mono}

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def substitute(self, values: dict[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        out = MultiPoly()
        for mono, c in self.terms.items():
            term = MultiPoly.const(c)
            for v, e in mono:
                base = values.get(v, MultiPoly.var(v))
                if not isinstance(base, MultiPoly):
                    base = MultiPoly.const(base)
                term = term * base**e
            out = out + term
        return out

    def eval(self, values: dict[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for mono, c in self.terms.items():
            prod = Fraction(c)
            for v, e in mono:
                prod *= Fraction(values[v]) ** e
            total += prod
        return total

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"

    def render(self) -> str:
        """Graded lexicographic on variable index, human-readable."""
        if not self.terms:
            return "0"

        def mono_key(mono: Monomial):
            deg = sum(e for _, e in mono)
            return (deg, tuple((_var_key(v), -e) for v, e in mono))

        chunks: list[str] = []
        for mono, c in sorted(self.terms.items(), key=lambda kv: mono_key(kv[0])):
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            if not body:
                text = str(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{abs(c)}*{body}"
            if not chunks:
                chunks.append(text if c > 0 else f"-{text}")
            else:
                chunks.append(("+ " if c > 0 else "- ") + text)
        return " ".join(chunks)


def _lift(x):
    """A number as a constant polynomial; anything else as it is."""
    return MultiPoly.const(x) if isinstance(x, (int, Fraction)) else x


def _merge(a: Monomial, b: Monomial) -> LinComb:
    """The product of two monomials, as a one-term combination."""
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return LinComb.single(tuple(sorted(exps.items(), key=lambda kv: _var_key(kv[0]))))


# ---------------------------------------------------------------------------
# ghost map


def _ring(x):
    """A coordinate as a ring element: a MultiPoly as itself, a number as an
    exact int-first scalar (linear.normalize: int when integral, else
    Fraction).  The ghost map and its inverse run on both alike."""
    return x if isinstance(x, MultiPoly) else normalize(x)


def _public(xs: list) -> list:
    """Ring elements as the public functions return them: numbers as
    Fraction, polynomials unchanged."""
    return [x if isinstance(x, MultiPoly) else Fraction(x) for x in xs]


def _ghost(ws: list) -> list:
    """Ghost components of ring elements, as ring elements."""
    return [sum(d * ws[d - 1] ** (n // d) for d in divisors(n))
            for n in range(1, len(ws) + 1)]


def ghost(w: Iterable) -> list:
    """Ghost components r_n = sum over d|n of d * w_d^(n/d)."""
    return _public(_ghost([_ring(x) for x in w]))


def ghost_sym(upto: int, prefix: str = "w") -> list[MultiPoly]:
    """Ghost components with symbolic coordinates prefix1..prefixN."""
    return ghost(MultiPoly.var(f"{prefix}{d}") for d in range(1, upto + 1))


def _solve_next(r_n, w: list):
    """w_n from r_n and w_1..w_(n-1): one step of the triangular ghost solve."""
    n = len(w) + 1
    acc = r_n
    for d in divisors(n):
        if d < n:
            acc = acc - d * w[d - 1] ** (n // d)
    return exact_div(acc, n)


def _ghost_inverse(r: list) -> list:
    """Coordinates of ring-element ghost components, as ring elements."""
    w: list = []
    for x in r:
        w.append(_solve_next(x, w))
    return w


def ghost_inverse(r: Iterable) -> list:
    """Triangular solve of the ghost formula for the coordinates."""
    return _public(_ghost_inverse([_ring(x) for x in r]))


def _ghostwise(op, u: Iterable, v: Iterable) -> list:
    """The coordinate operation that is op on ghost components."""
    u, v = [_ring(x) for x in u], [_ring(x) for x in v]
    if len(u) != len(v):
        raise ValueError("coordinate vectors must share their truncation length")
    return _public(_ghost_inverse([op(a, b) for a, b in zip(_ghost(u), _ghost(v))]))


def witt_add(u: Iterable, v: Iterable) -> list:
    return _ghostwise(operator.add, u, v)


def witt_mul(u: Iterable, v: Iterable) -> list:
    return _ghostwise(operator.mul, u, v)


# F_1, F_2, ... and G_1, G_2, ... solved so far in this process
_F: list[MultiPoly] = []
_G: list[MultiPoly] = []


def universal_polys(upto: int) -> tuple[list[MultiPoly], list[MultiPoly]]:
    """Universal addition and multiplication polynomials F_n, G_n in the
    coordinates w_d, v_d: ghost_inverse's steps on the sums and products of
    the symbolic ghost components, with integer coefficients and divisor-only
    variable support asserted, not assumed.

    Each F_n, G_n is solved and checked once per process (index n reads only
    d | n, d < n): a call extends the memo through upto and returns new lists
    of its prefix.  The polynomials in them are shared; do not mutate them.
    """
    if upto > 8:
        raise ValueError("universal polynomials are capped at index 8")
    if len(_F) < upto:
        rw, rv = ghost_sym(upto, "w"), ghost_sym(upto, "v")
        for n in range(len(_F) + 1, upto + 1):
            Fn = _solve_next(rw[n - 1] + rv[n - 1], _F)
            Gn = _solve_next(rw[n - 1] * rv[n - 1], _G)
            allowed = {f"{p}{d}" for d in divisors(n) for p in ("w", "v")}
            for poly, tag in ((Fn, "F"), (Gn, "G")):
                if not poly.is_integral():
                    raise ArithmeticError(f"{tag}{n} has a non-integer coefficient")
                if not poly.variables() <= allowed:
                    raise ArithmeticError(f"{tag}{n} uses non-divisor variables")
            _F.append(Fn)
            _G.append(Gn)
    upto = max(upto, 0)
    return _F[:upto], _G[:upto]


# ---------------------------------------------------------------------------
# lambda and Adams operations


def lambda_op(n: int, m: int) -> int:
    """Generalized binomial coefficient C(m, n) for any integer m, n >= 0."""
    if n < 0:
        raise ValueError("need n >= 0")
    num = 1
    for i in range(n):
        num *= m - i
    return num // math.factorial(n)


def lambda_iter_identity(x: int) -> bool:
    """Second-operation composition witness:
    C(C(x,2),2) = C(x,3)*x - C(x,4)."""
    return lambda_op(2, lambda_op(2, x)) == lambda_op(3, x) * x - lambda_op(4, x)


def adams_op(n: int, seq: list) -> list:
    """Stride-n subsampling [x_n, x_2n, ...] of a coordinate sequence."""
    if n < 1:
        raise ValueError("need n >= 1")
    return seq[n - 1 :: n]


# ---------------------------------------------------------------------------
# coordinates <-> product-series coefficients
#
# The series attached to coordinates [w_1, w_2, ...] is
#     f(t) = prod over d of (1 - w_d (-t)^d)
#          = (1 + w_1 t)(1 - w_2 t^2)(1 + w_3 t^3)...
# and e_n is its t^n coefficient.  Each factor contributes a single term
# s_d w_d t^d with s_d = +1 for odd d, -1 for even d, which makes the
# conversion triangular in both directions.


def _sign(d: int) -> int:
    return 1 if d % 2 else -1


def w_to_e(w: list) -> list:
    """Coefficients e_1..e_N of the product series, same entry type as w
    (rationals or polynomials)."""
    w = [_ring(x) for x in w]
    n = len(w)
    one = MultiPoly.const(1) if any(isinstance(x, MultiPoly) for x in w) else 1
    zero = one - one
    coeffs: list = [one] + [zero] * n  # t^0..t^n
    for d in range(1, n + 1):
        term = w[d - 1] * _sign(d)
        for k in range(n, d - 1, -1):
            coeffs[k] = coeffs[k] + coeffs[k - d] * term
    return _public(coeffs[1:])


def e_to_w(e: list) -> list:
    """Inverse conversion, solved degree by degree: maintain the partial
    product over earlier indices; the next coordinate is the sign-adjusted
    gap at its own degree."""
    e = [_ring(x) for x in e]
    n = len(e)
    one = MultiPoly.const(1) if any(isinstance(x, MultiPoly) for x in e) else 1
    zero = one - one
    partial: list = [one] + [zero] * n  # product over factors d' < current d
    w: list = []
    for d in range(1, n + 1):
        wd = (e[d - 1] - partial[d]) * _sign(d)
        w.append(wd)
        term = wd * _sign(d)
        for k in range(n, d - 1, -1):
            partial[k] = partial[k] + partial[k - d] * term
    return _public(w)


def log_derivative_L(series: list) -> list:
    """Coefficients of f'/f for a series with constant term 1; length N for an
    input of length N+1.  Applied to the coordinate product series this
    recovers the ghost components up to alternating signs."""
    series = [_ring(x) for x in series]
    if not series or series[0] != 1:
        raise ValueError("logarithmic derivative needs constant term 1")
    n = len(series) - 1
    zero = series[0] - series[0]
    # g * f = f' mod t^n: row j of the solve is t^j * f
    g = triangular_solve(((k, series[k + 1] * (k + 1)) for k in range(n)), range(n),
                         lambda j: ((j + i, series[i]) for i in range(n - j)))
    return [v + zero for v in g.values()]
