"""The coproduct laws of the four splitting families, through the public API.

Each law is written once and run on every family it applies to:
- coassociativity, (Δ ⊗ id)Δ = (id ⊗ Δ)Δ;
- both counit laws, (ε ⊗ id)Δ = id = (id ⊗ ε)Δ;
- the weakened homomorphism law.  Recombining tensors componentwise,
  (a, b)(c, d) = (a ∘ c, b ∘ d), Δ(n ∘ m) = Δ(n)Δ(m) holds for the plain
  divisor coproduct exactly when gcd(n, m) = 1, for the plain additive one
  exactly when n = 0 or m = 0, and always for the two weighted
  ("unrenormalized") coproducts.
"""

import math
import operator
from typing import Callable, NamedTuple

import pytest

from natalg import additive as ad
from natalg import dirichlet as dh
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
