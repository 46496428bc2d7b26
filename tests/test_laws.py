"""The coproduct laws of the four splitting families, through the public API.

Each law is written once and run on every family it applies to:
- coassociativity, (Δ ⊗ id)Δ = (id ⊗ Δ)Δ;
- both counit laws, (ε ⊗ id)Δ = id = (id ⊗ ε)Δ;
- the weakened homomorphism law.  Recombining tensors componentwise,
  (a, b)(c, d) = (a ∘ c, b ∘ d), Δ(n ∘ m) = Δ(n)Δ(m) holds for the plain
  divisor coproduct exactly when gcd(n, m) = 1, for the plain additive one
  exactly when n = 0 or m = 0, and always for the two weighted
  ("unrenormalized") coproducts.

Renormalization is one rescaling by a weight w, w(n) = n! on the additive
side and w(n) = prod_p r_p! for n = prod_p p^r_p on the divisor side; the
rescaling laws below use their own w.  Last, the antipode axiom
sum_(a, b) S(a) b = eps(n) for both divisor antipodes, and f * f^-1 = eps
for every named arithmetic function.

The same laws for the plethystic coproduct on partitions; the standard
weight-one Rota-Baxter identity of rota_baxter_R on balanced words; and the
Laplace rule <ab|c> = sum <a|c_(1)> <b|c_(2)> for the symmetric-function
pairing and for the weighted divisor pairing.
"""

import math
import operator
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

import pytest

from natalg import additive as ad
from natalg import dirichlet as dh
from natalg import normal_order as no
from natalg import symfun as sf
from natalg.linear import LinComb


class Family(NamedTuple):
    coproduct: Callable[[int], LinComb]
    counit: Callable[[int], int]
    combine: Callable[[int, int], int]  # how a tensor's legs recombine
    domain: range  # coassociativity and counit are checked on all of it
    hom_domain: range  # the homomorphism law, on every pair from it
    hom_holds: Callable[[int, int], bool]  # exactly when Δ(n ∘ m) = Δ(n)Δ(m)


ADD_HOM = range(0, 20)
MUL_HOM = range(1, 60)
FAMILIES = {
    "add": Family(ad.coproduct_add, ad.counit_add, operator.add, range(0, 50), ADD_HOM,
                  lambda n, m: n == 0 or m == 0),
    "add-unrenorm": Family(ad.coproduct_add_unrenorm, ad.counit_add, operator.add, range(0, 50),
                           ADD_HOM, lambda n, m: True),
    "mul": Family(dh.coproduct_mul, dh.counit_mul, operator.mul, range(1, 300), MUL_HOM,
                  lambda n, m: math.gcd(n, m) == 1),
    "mul-unrenorm": Family(dh.coproduct_mul_unrenorm, dh.counit_mul, operator.mul, range(1, 300),
                           MUL_HOM, lambda n, m: True),
}

families = pytest.mark.parametrize("fam", FAMILIES.values(), ids=FAMILIES.keys())


def split_again(fam: Family, lc: LinComb, leg: int) -> LinComb:
    """(Δ ⊗ id) (leg 0) or (id ⊗ Δ) (leg 1) applied to a sum of pairs."""
    terms: dict = {}
    for (a, b), c in lc:
        for (x, y), w in fam.coproduct((a, b)[leg]):
            key = (x, y, b) if leg == 0 else (a, x, y)
            terms[key] = terms.get(key, 0) + c * w
    return LinComb(terms)


@families
def test_coassociativity(fam):
    for n in fam.domain:
        delta = fam.coproduct(n)
        assert split_again(fam, delta, 0) == split_again(fam, delta, 1), n


@families
def test_counit_laws(fam):
    for n in fam.domain:
        delta = fam.coproduct(n)
        left = LinComb.zero()
        right = LinComb.zero()
        for (a, b), c in delta:
            left = left + LinComb.single(b, fam.counit(a) * c)
            right = right + LinComb.single(a, c * fam.counit(b))
        assert left == right == LinComb.single(n), n


@families
def test_weakened_homomorphism(fam):
    def recombine(s, t):
        return LinComb.single((fam.combine(s[0], t[0]), fam.combine(s[1], t[1])))

    for n in fam.hom_domain:
        for m in fam.hom_domain:
            product = fam.coproduct(n).bilinear(fam.coproduct(m), recombine)
            holds = fam.coproduct(fam.combine(n, m)) == product
            assert holds == fam.hom_holds(n, m), (n, m)


# ---------------------------------------------------------------------------
# renormalization as the rescaling by w


@cache
def w_mul(n: int) -> int:
    """prod_p r_p! for n = prod_p p^r_p, by trial division."""
    out, p = 1, 2
    while n > 1:
        r = 0
        while n % p == 0:
            n //= p
            r += 1
        out *= math.factorial(r)
        p += 1
    return out


@pytest.mark.parametrize("plain, weighted, w", [
    (FAMILIES["add"], FAMILIES["add-unrenorm"], cache(math.factorial)),
    (FAMILIES["mul"], FAMILIES["mul-unrenorm"], w_mul),
], ids=["add", "mul"])
def test_weighted_coproduct_rescales_the_plain_one(plain, weighted, w):
    # coefficient w(n) / (w(a) w(b)) on each plain term (a, b), cross-multiplied
    for n in range(plain.domain.start, 300):
        plain_n, weighted_n = dict(plain.coproduct(n)), dict(weighted.coproduct(n))
        assert weighted_n.keys() == plain_n.keys(), n
        assert all(weighted_n[a, b] * w(a) * w(b) == c * w(n) for (a, b), c in plain_n.items()), n


def test_sharp_product_and_pairing_are_weight_ratios():
    for n in range(1, 200):
        for m in range(1, 200):
            coeff, nm = dh.sharp_multiply(n, m)
            assert nm == n * m and coeff * w_mul(n) * w_mul(m) == w_mul(nm), (n, m)
            assert dh.pairing_unrenorm(n, m) == (w_mul(n) if n == m else 0), (n, m)


def compositions(r: int, parts: int):
    """Every (s_1, ..., s_parts) of nonnegative integers summing to r."""
    if parts == 1:
        yield (r,)
        return
    for s in range(r + 1):
        for rest in compositions(r - s, parts - 1):
            yield (s,) + rest


@pytest.mark.parametrize("p", [2, 3, 5])
def test_iterated_weighted_coproduct_is_multinomial(p):
    for r in range(1, 8):
        multinomials = {tuple(p**s for s in c): math.factorial(r) // math.prod(map(math.factorial, c))
                        for c in compositions(r, r)}
        assert dh.coproduct_mul_unrenorm_iterated(p, r) == LinComb(multinomials), r


@pytest.mark.parametrize("fam, antipode", [
    (FAMILIES["mul"], dh.antipode_mul),
    (FAMILIES["mul-unrenorm"], dh.antipode_unrenorm),
], ids=["mul", "mul-unrenorm"])
def test_antipode_axiom(fam, antipode):
    for n in fam.domain:
        assert sum(c * antipode(a) * b for (a, b), c in fam.coproduct(n)) == fam.counit(n), n


def test_weighted_antipode_is_the_rescaled_inverse():
    # S'(n) = w(n) g^-1(n) with g(n) = n / w(n): the weighted antipode axiom
    # divided through by w(n) is g^-1 * g = eps
    g_inv = dh.ArithFn(lambda n: Fraction(n, w_mul(n)), "id/w").inverse()
    for n, v in enumerate(g_inv.values(2000), start=1):
        assert dh.antipode_unrenorm(n) == w_mul(n) * v, n


NAMED_FNS = [dh.zeta, dh.moebius_fn, dh.identity_fn, dh.liouville, dh.unit_fn,
             *(dh.id_power(k) for k in range(4))]


@pytest.mark.parametrize("f", NAMED_FNS, ids=[f.name for f in NAMED_FNS])
def test_convolving_with_the_inverse_gives_the_unit(f):
    # the divisor sum runs over the multiples of each d, not through nat
    upto = 2000
    fv = [0] + f.values(upto)
    gv = [0] + f.inverse().values(upto)
    conv = [0] * (upto + 1)
    for d in range(1, upto + 1):
        for k in range(1, upto // d + 1):
            conv[d * k] += fv[d] * gv[k]
    assert conv[1:] == [1] + [0] * (upto - 1)


# ---------------------------------------------------------------------------
# partitions, balanced words and the Laplace rule


PARTITIONS = [lam for w in range(9) for lam in sf.partitions_of(w)]


def test_pleth_coproduct_is_coassociative_and_counital():
    def split_again(lc, leg):
        terms: dict = {}
        for (a, b), c in lc:
            for (x, y), w in sf.pleth_coproduct((a, b)[leg]):
                key = (x, y, b) if leg == 0 else (a, x, y)
                terms[key] = terms.get(key, 0) + c * w
        return LinComb(terms)

    for lam in PARTITIONS:
        delta = sf.pleth_coproduct(lam)
        assert split_again(delta, 0) == split_again(delta, 1), lam
        # the counit is 1 on the empty partition and 0 elsewhere
        assert LinComb({b: c for (a, b), c in delta if not a}) == LinComb.single(lam), lam
        assert LinComb({a: c for (a, b), c in delta if not b}) == LinComb.single(lam), lam


def test_rota_baxter_identity_on_balanced_words():
    for k in range(6):
        for l in range(6):
            x, y = LinComb.single((k, k)), LinComb.single((l, l))
            assert no.rb_identity_diagnostic(x, y)["standard"], (k, l)


def test_laplace_rule_for_the_symmetric_function_pairing():
    small = [lam for lam in PARTITIONS if sf.weight(lam) <= 4]
    for a in small:
        for b in small:
            if len(a) + len(b) > 4:
                continue
            (ab, k), = sf.div_product(a, b)
            for c in PARTITIONS:
                if len(c) != len(a) + len(b):
                    continue  # both sides vanish
                rhs = LinComb.zero()
                for (c1, c2), w in sf.pleth_coproduct(c):
                    rhs = rhs + sf.sym_mul(sf.laplace_pairing(a, c1), sf.laplace_pairing(b, c2)).scale(w)
                assert sf.laplace_pairing(ab, c).scale(k) == rhs, (a, b, c)


def test_laplace_rule_for_the_weighted_divisor_pairing():
    # with the plain product a*b; the sharp product's weight ratio breaks it
    for c in range(1, 200):
        delta = list(dh.coproduct_mul_unrenorm(c))
        for a in range(1, 13):
            for b in range(1, 13):
                rhs = sum(w * dh.pairing_unrenorm(a, c1) * dh.pairing_unrenorm(b, c2)
                          for (c1, c2), w in delta)
                assert dh.pairing_unrenorm(a * b, c) == rhs, (a, b, c)
