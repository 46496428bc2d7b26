"""Normal-ordered boson calculus: a twisted product on words :a†^r a^s:,
Stirling numbers of the second kind three ways, and the weight-one
Rota-Baxter realization behind the partial-sum operator.

A word is the key (dag, low) meaning :a†^dag a^low:; sums of words are
LinComb values over those keys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .linear import LinComb

__all__ = [
    "pairing_F",
    "circle_op",
    "circle_op_via_pairing",
    "circle_op_sum",
    "circle_power",
    "derive_annihilate",
    "ccr_check",
    "inner_product",
    "stirling2",
    "stirling2_rec",
    "stirling2_from_circle",
    "rota_baxter_R",
    "R_iter",
    "main_theorem_check",
    "rb_identity_diagnostic",
    "render_op",
]

Word = tuple[int, int]  # (dag, low)

VACUUM: Word = (0, 0)
T: Word = (1, 1)  # the number operator :a†a:


def _check_word(w: Word) -> None:
    if w[0] < 0 or w[1] < 0:
        raise ValueError(f"negative exponents in word {w}")


def pairing_F(u: Word, v: Word) -> Fraction:
    """Contraction pairing: nonzero only between pure annihilators on the left
    and pure creators on the right with equal power, where it counts the
    perfect matchings: F(a^j, a†^j) = j!.
    """
    _check_word(u)
    _check_word(v)
    if u[0] == 0 and v[1] == 0 and u[1] == v[0]:
        return Fraction(math.factorial(u[1]))
    return Fraction(0)


def circle_op(u: Word, v: Word) -> LinComb:
    """Product of two normal-ordered words.

    Closed contract: every way of contracting j of the left word's
    annihilators with j of the right word's creators, j! matchings each:

        sum_j j! C(s,j) C(m,j) :a†^(r+m-j) a^(s+n-j):
    """
    _check_word(u)
    _check_word(v)
    r, s = u
    m, n = v
    out: dict[Word, int] = {}
    for j in range(min(s, m) + 1):
        c = math.factorial(j) * math.comb(s, j) * math.comb(m, j)
        out[(r + m - j, s + n - j)] = c
    return LinComb(out)


def circle_op_via_pairing(u: Word, v: Word) -> LinComb:
    """Same product assembled the long way: binomially weighted splits on both
    arguments, the pairing applied to the inner legs.  Kept as a structural
    cross-check on the closed contract.
    """
    _check_word(u)
    _check_word(v)
    r, s = u
    m, n = v
    total = LinComb.zero()
    for j1 in range(s + 1):
        for j2 in range(m + 1):
            f = pairing_F((0, j1), (j2, 0))
            if not f:
                continue
            w = math.comb(s, j1) * math.comb(m, j2)
            total = total + LinComb.single((r + m - j2, s - j1 + n), w * f)
    return total


def circle_op_sum(x: LinComb, y: LinComb) -> LinComb:
    return x.bilinear(y, circle_op)


@cache
def circle_power(w: Word, n: int) -> LinComb:
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return LinComb.single(VACUUM)
    acc = LinComb.single(w)
    for _ in range(n - 1):
        acc = circle_op_sum(acc, LinComb.single(w))
    return acc


# ---------------------------------------------------------------------------
# states


def derive_annihilate(n: int) -> tuple[int, int]:
    """One annihilator through a†^n: returns (coefficient, new power);
    the vacuum is killed, coefficient 0."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return (0, 0)
    return (n, n - 1)


def ccr_check(n: int) -> bool:
    """Commutator witness on states: acting on a†^n, the two compositions of
    one annihilator and one creator differ by exactly the identity."""
    lhs, _ = derive_annihilate(n + 1)  # a (a† . a†^n)
    rhs, _ = derive_annihilate(n)  # a† (a . a†^n), same power after reordering
    return lhs - rhs == 1


def inner_product(n: int, m: int) -> Fraction:
    """<n|m> with normalized states: annihilate n times against a†^m, project
    onto the vacuum, divide by n!."""
    if n < 0 or m < 0:
        raise ValueError("need nonnegative occupation numbers")
    coeff = Fraction(1)
    power = m
    for _ in range(n):
        c, power = derive_annihilate(power)
        coeff *= c
        if coeff == 0:
            return Fraction(0)
    if power != 0:
        return Fraction(0)  # vacuum projection
    return coeff / math.factorial(n)


# ---------------------------------------------------------------------------
# Stirling numbers, three ways


def stirling2(n: int, k: int) -> int:
    """Closed inclusion-exclusion form sum_j (-1)^(k-j) j^n / (j! (k-j)!)."""
    if n < 0 or k < 0:
        raise ValueError("need nonnegative arguments")
    total = Fraction(0)
    for j in range(k + 1):
        total += Fraction((-1) ** (k - j) * j**n,
                          math.factorial(j) * math.factorial(k - j))
    if total.denominator != 1:
        raise ArithmeticError(f"closed form not integral at ({n},{k})")
    return int(total)


@cache
def stirling2_rec(n: int, k: int) -> int:
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    if k > n:
        return 0
    return k * stirling2_rec(n - 1, k) + stirling2_rec(n - 1, k - 1)


def stirling2_from_circle(n: int, k: int) -> int:
    """Coefficient of :a†^k a^k: in the n-th power of the number operator."""
    return circle_power(T, n)[(k, k)]


# ---------------------------------------------------------------------------
# Rota-Baxter layer


def rota_baxter_R(x: LinComb) -> LinComb:
    """The partial-sum operator on balanced words:
    R(:a†^k a^k:) = :a†^(k+1) a^(k+1): / (k+1), extended linearly."""
    out = LinComb.zero()
    for (dag, low), c in x:
        if dag != low:
            raise ValueError(f"R needs balanced support, got :a†^{dag} a^{low}:")
        out = out + LinComb.single((dag + 1, low + 1), Fraction(c, dag + 1))
    return out


def R_iter(k: int) -> LinComb:
    """R^k applied to the empty word; k! R^k(1) is the balanced word of grade 2k."""
    acc = LinComb.single(VACUUM)
    for _ in range(k):
        acc = rota_baxter_R(acc)
    return acc


def main_theorem_check(n: int) -> bool:
    """R(1)^n (circle powers) against sum_k k! S(n,k) R^k(1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    lhs = circle_power(T, n)
    rhs = LinComb.zero()
    for k in range(1, n + 1):
        rhs = rhs + R_iter(k).scale(math.factorial(k) * stirling2(n, k))
    return lhs == rhs


def rb_identity_diagnostic(x: LinComb, y: LinComb) -> dict[str, bool]:
    """Which Rota-Baxter shape does R actually satisfy on these arguments?

    standard: R(x)R(y) = R( R(x)y + xR(y) + xy )
    nested:   R(x)R(y) = R( R(x)y + xR(y) + R(xy) )
    """
    rx, ry = rota_baxter_R(x), rota_baxter_R(y)
    lhs = circle_op_sum(rx, ry)
    cross = circle_op_sum(rx, y) + circle_op_sum(x, ry)
    xy = circle_op_sum(x, y)
    return {
        "standard": lhs == rota_baxter_R(cross + xy),
        "nested": lhs == rota_baxter_R(cross + rota_baxter_R(xy)),
    }


# ---------------------------------------------------------------------------
# rendering


def _word_str(w: Word) -> str:
    dag, low = w
    if dag == low == 0:
        return "1"
    bits = []
    if dag:
        bits.append("a†" if dag == 1 else f"a†^{dag}")
    if low:
        bits.append("a" if low == 1 else f"a^{low}")
    return ":" + " ".join(bits) + ":"


def render_op(x: LinComb) -> str:
    """Terms as 'c :a†^m a^n:', ascending grade then creator count."""
    if not x:
        return "0"
    items = sorted(x.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))
    chunks = []
    for w, c in items:
        if w == VACUUM:
            chunks.append(str(c))
        elif c == 1:
            chunks.append(_word_str(w))
        else:
            chunks.append(f"{c} {_word_str(w)}")
    return " + ".join(chunks)
