"""Truncated Dirichlet-type generating functions with exact coefficients.

Coefficient vectors indexed from 1; the product is divisor convolution.
Convergence is out of scope by design: these are formal objects only.
"""

from __future__ import annotations

from .dirichlet import push_inverse
from .linear import Scalar, normalize
from .nat import divisors, is_prime, moebius

__all__ = [
    "DirichletSeries",
    "named_series",
    "series_add",
    "series_mul",
    "hadamard",
    "series_inverse",
    "euler_product_inverse_zeta",
    "l_series",
    "character_is_completely_multiplicative",
    "hurwitz_coeffs",
    "lambert_moebius_check",
    "polylog_coeffs",
    "odg_table",
    "to_csv",
]


class DirichletSeries:
    """Truncated coefficient vector (a_1, ..., a_N) of exact scalars."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(map(normalize, coeffs))
        if not cs:
            raise ValueError("a series needs at least the coefficient at index 1")
        self.coeffs = cs

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> Scalar:
        # 1-based, like everything else in the divisor world
        if n < 1 or n > len(self.coeffs):
            raise IndexError(f"coefficient index {n} outside 1..{len(self.coeffs)}")
        return self.coeffs[n - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        # compare on the shared truncation
        k = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:k] == other.coeffs[:k]

    def __hash__(self):
        raise TypeError("DirichletSeries is not hashable")

    def __repr__(self) -> str:
        return f"DirichletSeries({[str(c) for c in self.coeffs]})"


_NAMES = ("zeta", "zeta_squared", "ordered_factorizations", "lambda",
          "moebius", "identity_shift")


def named_series(name: str, upto: int) -> DirichletSeries:
    if upto < 1:
        raise ValueError("truncation depth must be at least 1")
    if name == "zeta":
        return DirichletSeries([1] * upto)
    if name == "zeta_squared":
        return DirichletSeries([len(divisors(n)) for n in range(1, upto + 1)])
    if name == "ordered_factorizations":
        # 1/(2 - zeta): invert the vector (1, -1, -1, ...)
        two_minus_zeta = DirichletSeries([1] + [-1] * (upto - 1))
        return series_inverse(two_minus_zeta)
    if name == "lambda":
        return DirichletSeries([n % 2 for n in range(1, upto + 1)])
    if name == "moebius":
        return DirichletSeries([moebius(n) for n in range(1, upto + 1)])
    if name == "identity_shift":
        return DirichletSeries([n * moebius(n) for n in range(1, upto + 1)])
    raise ValueError(f"unknown series name {name!r}; expected one of {_NAMES}")


def series_add(f: DirichletSeries, g: DirichletSeries) -> DirichletSeries:
    k = min(len(f), len(g))
    return DirichletSeries([f[n] + g[n] for n in range(1, k + 1)])


def hadamard(f: DirichletSeries, g: DirichletSeries) -> DirichletSeries:
    k = min(len(f), len(g))
    return DirichletSeries([f[n] * g[n] for n in range(1, k + 1)])


def series_mul(f: DirichletSeries, g: DirichletSeries) -> DirichletSeries:
    """Divisor convolution, each f_d pushed onto the multiples d*e <= k."""
    k = min(len(f), len(g))
    out = [0] * (k + 1)
    for d, fd in enumerate(f.coeffs[:k], 1):
        if fd:
            for t, ge in zip(range(d, k + 1, d), g.coeffs[:k // d]):
                if ge:
                    out[t] += fd * ge
    return DirichletSeries(out[1:])


def series_inverse(f: DirichletSeries) -> DirichletSeries:
    if f[1] == 0:
        raise ValueError("series with leading coefficient 0 is not invertible")
    return DirichletSeries(push_inverse([0, *f.coeffs], [0], len(f))[1:])


def euler_product_inverse_zeta(primes_up_to: int, upto: int) -> DirichletSeries:
    """Expand the product over primes p <= P of (1 - p^{-s}) to depth upto.

    P must cover every prime <= upto, otherwise the truncation would be
    silently wrong; the result is the squarefree sign vector.
    """
    missing = [p for p in range(2, upto + 1) if is_prime(p) and p > primes_up_to]
    if missing:
        raise ValueError(
            f"prime bound {primes_up_to} too small for depth {upto}: missing {missing}"
        )
    coeffs = [1] + [0] * (upto - 1)
    for p in range(2, primes_up_to + 1):
        if not is_prime(p):
            continue
        # multiply by (1 - p^{-s}): a_n -> a_n - a_{n/p}
        for n in range(upto, 0, -1):
            if n % p == 0:
                coeffs[n - 1] -= coeffs[n // p - 1]
    return DirichletSeries(coeffs)


def l_series(chi: list[Scalar], upto: int) -> DirichletSeries:
    """Series with coefficients chi(n) extended periodically from one period."""
    if not chi:
        raise ValueError("character period must be nonempty")
    k = len(chi)
    return DirichletSeries([chi[(n - 1) % k] for n in range(1, upto + 1)])


def character_is_completely_multiplicative(chi: list[Scalar], upto: int) -> bool:
    """Advisory validator: does the periodic extension satisfy
    chi(nm) = chi(n)chi(m) on 1..upto?  Callers remain responsible for
    choosing genuine characters; this only reports.
    """
    f = l_series(chi, upto * upto)
    return all(
        f[n * m] == f[n] * f[m]
        for n in range(1, upto + 1)
        for m in range(n, upto + 1)
    )


def hurwitz_coeffs(k: int, upto: int) -> list[int]:
    """Shifted support vector: 1 at indices n+k for n = 1..upto, else 0.

    Returned as a plain list indexed from 1 to upto+k.
    """
    if k < 0:
        raise ValueError("shift must be nonnegative")
    out = [0] * (upto + k)
    for n in range(1, upto + 1):
        out[n + k - 1] = 1
    return out


def lambert_moebius_check(upto: int) -> bool:
    """True iff sum_n mu(n) x^n/(1-x^n) = x as ordinary series mod x^(upto+1)."""
    if upto < 1:
        raise ValueError("need depth >= 1")
    acc = [0] * (upto + 1)  # index = power of x
    for n in range(1, upto + 1):
        mu = moebius(n)
        if mu == 0:
            continue
        # x^n/(1-x^n) contributes x^(n*j) for j >= 1
        for power in range(n, upto + 1, n):
            acc[power] += mu
    return acc[0] == 0 and acc[1] == 1 and all(c == 0 for c in acc[2:])


def polylog_coeffs(n_max: int, m_max: int) -> list[list[int]]:
    """The double-indexed container selecting a_{n,m} = delta_{n,m}
    (rows n = 1..n_max, columns m = 1..m_max).
    """
    return [
        [1 if n == m else 0 for m in range(1, m_max + 1)]
        for n in range(1, n_max + 1)
    ]


def odg_table(dirichlet_coeffs: list[Scalar],
              ordinary_coeffs: list[Scalar]) -> list[list[Scalar]]:
    """General double-indexed container: the external product a_{n,m} = f_n * g_m
    of a divisor-indexed vector and an ordinary one.
    """
    gs = [normalize(gm) for gm in ordinary_coeffs]
    return [[normalize(fn * gm) for gm in gs] for fn in map(normalize, dirichlet_coeffs)]


def to_csv(f: DirichletSeries) -> str:
    """Rows "n,coefficient" with exact rationals."""
    return "\n".join(f"{n},{f[n]}" for n in range(1, len(f) + 1))
