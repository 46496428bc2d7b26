"""Monomial symmetric functions with a pairing-twisted circle product.

Partitions are stored as descending tuples of parts; as basis labels they
double as products of divided-power generators, one generator per part size
with the part's multiplicity as its exponent.  The circle product recovers
honest symmetric-function multiplication, which is what the polynomial oracle
here checks.  The Kostka matrix links the monomial, Schur and complete bases;
it is unitriangular in dominance order, so each basis change is one
triangular solve, and the chain through it gives Littlewood-Richardson
coefficients.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

from .linear import LinComb

__all__ = [
    "Partition",
    "weight",
    "mult_map",
    "from_mult",
    "partitions_of",
    "div_product",
    "sym_mul",
    "pleth_coproduct",
    "laplace_pairing",
    "circle_product",
    "circle_sum",
    "monomial_oracle",
    "kostka",
    "schur_product_lr",
    "schur_product_oracle",
    "eta_complete",
    "to_h_basis",
    "dominates",
    "render_sym",
]

Partition = tuple[int, ...]


def _canon(parts) -> Partition:
    parts = tuple(sorted((int(p) for p in parts), reverse=True))
    if any(p < 1 for p in parts):
        raise ValueError(f"parts must be positive, got {parts}")
    return parts


def weight(lam: Partition) -> int:
    return sum(lam)


def mult_map(lam: Partition) -> dict[int, int]:
    """part size -> multiplicity"""
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def from_mult(mult: dict[int, int]) -> Partition:
    parts: list[int] = []
    for p, r in mult.items():
        if r < 0:
            raise ValueError("negative multiplicity")
        parts.extend([p] * r)
    return _canon(parts)


@cache
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    if n < 0:
        raise ValueError("no partitions of negative integers")
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out: list[Partition] = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


# ---------------------------------------------------------------------------
# products and coproduct


def div_product(lam: Partition, mu: Partition) -> LinComb:
    """Divided-power product: one merged term, coefficient
    prod over shared part sizes of C(r+s, r).
    """
    lm, mm = mult_map(lam), mult_map(mu)
    coeff = 1
    merged: dict[int, int] = dict(lm)
    for p, s in mm.items():
        r = merged.get(p, 0)
        coeff *= math.comb(r + s, r)
        merged[p] = r + s
    return LinComb.single(from_mult(merged), coeff)


def sym_mul(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear extension of div_product."""
    return x.bilinear(y, div_product)


@cache
def pleth_coproduct(lam: Partition) -> LinComb:
    """All multiplicity splits, coefficient 1 each: for every part size with
    multiplicity r, the left leg takes k copies and the right leg r-k.
    """
    items = sorted(mult_map(lam).items())
    terms: dict = {}
    for split in itertools.product(*(range(r + 1) for _, r in items)):
        left = from_mult({p: k for (p, _), k in zip(items, split) if k})
        right = from_mult({p: r - k for (p, r), k in zip(items, split) if r - k})
        terms[(left, right)] = 1
    return LinComb(terms)


# ---------------------------------------------------------------------------
# the pairing and the circle product


@cache
def laplace_pairing(u: Partition, v: Partition) -> LinComb:
    """Algebra-valued pairing.  Generator rule: one block against one block
    gives delta on equal multiplicities and fuses the part sizes,
    <i^(r) | j^(s)> = delta_{r,s} (i+j)^(s).  A multi-block u gives up its
    smallest block and v expands through its coproduct; values multiply with
    div_product.  The rule is symmetric and div_product commutes, so the
    pairing is symmetric.  Zero whenever the part counts disagree.
    """
    if len(u) != len(v):
        return LinComb.zero()
    if not u:
        return LinComb.single(())
    if len(set(u)) == 1:  # u is a single block
        if len(set(v)) > 1:
            # the pairing is symmetric, so the multi-block side goes left
            return laplace_pairing(v, u)
        # equal lengths mean equal multiplicities; the part sizes fuse
        return LinComb.single((u[0] + v[0],) * len(u))
    # peel the smallest-part block off u, expand v
    mm = mult_map(u)
    p = min(mm)
    block = from_mult({p: mm[p]})
    rest = from_mult({q: r for q, r in mm.items() if q != p})
    total = LinComb.zero()
    for (v1, v2), _ in pleth_coproduct(v):
        if len(v1) != len(block):
            continue
        head = laplace_pairing(block, v1)
        if not head:
            continue
        tail = laplace_pairing(rest, v2)
        if not tail:
            continue
        total = total + sym_mul(head, tail)
    return total


@cache
def circle_product(lam: Partition, mu: Partition) -> LinComb:
    """Pairing-twisted product on the monomial basis:
    sum over coproduct splits of <lam_1 | mu_1> * lam_2 * mu_2.
    Reproduces genuine monomial symmetric-function multiplication.
    """
    total = LinComb.zero()
    for (l1, l2), _ in pleth_coproduct(lam):
        for (m1, m2), _ in pleth_coproduct(mu):
            if len(l1) != len(m1):
                continue
            head = laplace_pairing(l1, m1)
            if not head:
                continue
            total = total + sym_mul(sym_mul(head, LinComb.single(l2)),
                                    LinComb.single(m2))
    return total


def circle_sum(x: LinComb, y: LinComb) -> LinComb:
    return x.bilinear(y, circle_product)


# ---------------------------------------------------------------------------
# polynomial oracle


def _monomial_poly(lam: Partition, nvars: int) -> dict[tuple[int, ...], int]:
    """m_lam as an explicit polynomial: all distinct permutations of the
    exponent pattern, coefficient 1."""
    if len(lam) > nvars:
        raise ValueError(f"{nvars} variables cannot carry {lam}")
    pattern = lam + (0,) * (nvars - len(lam))
    return {exps: 1 for exps in set(itertools.permutations(pattern))}


def monomial_oracle(lam: Partition, mu: Partition, nvars: int) -> LinComb:
    """Multiply m_lam * m_mu as honest polynomials and re-collect.

    nvars must be at least |lam| + |mu| so that no monomial pattern of the
    product is truncated away.
    """
    if nvars < weight(lam) + weight(mu):
        raise ValueError("not enough variables to collect the product faithfully")
    pl = _monomial_poly(_canon(lam), nvars)
    pm = _monomial_poly(_canon(mu), nvars)
    prod: dict[tuple[int, ...], int] = {}
    for ea, ca in pl.items():
        for eb, cb in pm.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            prod[e] = prod.get(e, 0) + ca * cb
    # a symmetric polynomial is determined by its sorted-exponent representatives
    collected: dict[Partition, int] = {}
    for exps, c in prod.items():
        stripped = tuple(sorted((x for x in exps if x), reverse=True))
        if exps == stripped + (0,) * (nvars - len(stripped)):
            collected[stripped] = c
    return LinComb(collected)


# ---------------------------------------------------------------------------
# Kostka numbers and the Schur bridge


def _horizontal_strips(lam: Partition, size: int):
    """All partitions lam' with lam/lam' a horizontal strip of the given size."""
    rows = len(lam)
    lower = list(lam[1:]) + [0]

    def rec(i: int, remaining: int, acc: list[int]):
        if i == rows:
            if remaining == 0:
                yield _canon([p for p in acc if p])
            return
        hi = lam[i]
        lo = lower[i]
        for newlen in range(lo, hi + 1):
            take = hi - newlen
            if take <= remaining:
                yield from rec(i + 1, remaining - take, acc + [newlen])

    yield from rec(0, size, [])


@cache
def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard fillings of shape lam with content mu."""
    lam, mu = _canon(lam), tuple(mu)
    if weight(lam) != sum(mu):
        raise ValueError("shape and content must have equal weight")
    if not lam:
        return 1
    if not mu:
        return 0
    last = mu[-1]
    rest = mu[:-1]
    return sum(kostka(prev, rest) for prev in _horizontal_strips(lam, last))


def dominates(lam: Partition, mu: Partition) -> bool:
    """Partial sums of lam bound those of mu (same weight assumed)."""
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def _unitriangular_solve(x: LinComb, order, expand) -> LinComb:
    """The coefficients a with x = sum a[lam] * expand(lam), where expand(lam)
    has coefficient 1 at lam and its other terms come later in order."""
    rem = dict(x.terms)
    out: dict[Partition, int | Fraction] = {}
    for lam in order:
        c = rem.get(lam)
        if not c:
            continue
        out[lam] = c
        for mu, k in expand(lam):
            rem[mu] = rem.get(mu, 0) - c * k
            if not rem[mu]:
                del rem[mu]
    if rem:
        raise ArithmeticError(f"basis conversion left a remainder: {rem}")
    return LinComb(out)


def _schur_in_m(lam: Partition) -> LinComb:
    """s_lam = sum over mu dominated by lam of K(lam, mu) m_mu: a Kostka row."""
    return LinComb({mu: kostka(lam, mu) for mu in partitions_of(weight(lam))
                    if dominates(lam, mu)})


def _h_in_schur(mu: Partition) -> LinComb:
    """h_mu = sum over lam dominating mu of K(lam, mu) s_lam: a Kostka column."""
    return LinComb({lam: kostka(lam, mu) for lam in partitions_of(weight(mu))
                    if dominates(lam, mu)})


def _m_to_schur(x: LinComb, w: int) -> LinComb:
    """x, homogeneous of weight w, in the Schur basis.  Lex order refines
    dominance, and partitions_of lists the most dominant first."""
    return _unitriangular_solve(x, partitions_of(w), _schur_in_m)


def schur_product_lr(lam: Partition, mu: Partition) -> LinComb:
    """Schur-basis product computed by the basis-change chain: expand both
    factors into the monomial basis (Kostka), circle-multiply, convert back.
    The resulting structure constants are the Littlewood-Richardson numbers.
    """
    lam, mu = _canon(lam), _canon(mu)
    prod_m = circle_sum(_schur_in_m(lam), _schur_in_m(mu))
    return _m_to_schur(prod_m, weight(lam) + weight(mu))


@cache
def _schur_poly(lam: Partition, nvars: int) -> dict[tuple[int, ...], int]:
    """Schur polynomial via explicit semistandard fillings in nvars variables."""
    if not lam:
        return {(0,) * nvars: 1}
    out: dict[tuple[int, ...], int] = {}
    # content vectors of fillings = compositions counted through kostka of
    # each rearrangement; enumerate fillings directly instead, row by row
    rows = len(lam)

    def rec(i: int, prev_row: tuple[int, ...], acc_exps: tuple[int, ...]):
        if i == rows:
            out[acc_exps] = out.get(acc_exps, 0) + 1
            return
        # choose a weakly increasing row with entries in 1..nvars,
        # strictly larger than the row above, cellwise
        length = lam[i]

        def build(j: int, minval: int, row: tuple[int, ...], exps: tuple[int, ...]):
            if j == length:
                rec(i + 1, row, exps)
                return
            lo = minval
            if i > 0:
                lo = max(lo, prev_row[j] + 1)
            for v in range(lo, nvars + 1):
                e = list(exps)
                e[v - 1] += 1
                build(j + 1, v, row + (v,), tuple(e))

        build(0, 1, (), acc_exps)

    rec(0, (), (0,) * nvars)
    return out


def schur_product_oracle(lam: Partition, mu: Partition) -> LinComb:
    """Independent product expansion: multiply explicit Schur polynomials and
    peel off dominant terms, entirely inside polynomial arithmetic."""
    lam, mu = _canon(lam), _canon(mu)
    w = weight(lam) + weight(mu)
    nvars = max(w, 1)
    pa, pb = _schur_poly(lam, nvars), _schur_poly(mu, nvars)
    prod: dict[tuple[int, ...], int] = {}
    for ea, ca in pa.items():
        for eb, cb in pb.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            prod[e] = prod.get(e, 0) + ca * cb
    out: dict[Partition, int] = {}
    while any(prod.values()):
        lead = max((e for e, c in prod.items() if c), key=lambda e: tuple(sorted(e, reverse=True)))
        pat = tuple(sorted((x for x in lead if x), reverse=True))
        c = prod[lead]
        out[pat] = c
        for e, cc in _schur_poly(pat, nvars).items():
            prod[e] = prod.get(e, 0) - c * cc
    return LinComb(out)


# ---------------------------------------------------------------------------
# complete-homogeneous bridge


def eta_complete(n: int) -> LinComb:
    """Image of the single-letter divided power: the sum of all monomial
    basis elements of weight n (the complete homogeneous function)."""
    if n < 0:
        raise ValueError("need n >= 0")
    return LinComb({lam: 1 for lam in partitions_of(n)})


def to_h_basis(x: LinComb, w: int) -> LinComb:
    """Express a homogeneous weight-w monomial-basis sum in the h-basis: m to
    s through the Kostka rows, then s to h through the Kostka columns, least
    dominant first.  Both solves are integral, so integral input stays int."""
    stray = sorted(lam for lam in x.terms if weight(lam) != w)
    if stray:
        raise ValueError(f"to_h_basis needs weight {w} throughout, got {stray}")
    return _unitriangular_solve(_m_to_schur(x, w), reversed(partitions_of(w)), _h_in_schur)


# ---------------------------------------------------------------------------
# rendering


def render_sym(x: LinComb, basis: str = "m") -> str:
    """Deterministic text form: terms ordered by weight then lexicographic
    parts, '2*m[1,1] + m[2]' style."""
    if not x:
        return "0"
    items = sorted(x.terms.items(), key=lambda kv: (weight(kv[0]), kv[0]))
    chunks = []
    for parts, c in items:
        label = f"{basis}[{','.join(map(str, parts))}]"
        chunks.append(label if c == 1 else f"{c}*{label}")
    return " + ".join(chunks)
