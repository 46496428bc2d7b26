"""Seeded job lists for the three workloads.

A job is one timed call into natalg's public API (`call`) plus an untimed
check of its result (`check`) that uses only `oracles`.  Inputs come from a
`random.Random(seed)`; natalg sees only the generated values.  Input objects
(series, cochain tables, ArithFn wrappers of seeded tables) are built here,
before timing starts; they touch no memo cache beyond the value at 1 that
ArithFn.inverse reads.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import oracles as O


class Job(NamedTuple):
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    known_defect: bool = False  # expected to fail until the defect is fixed


def plain(x):
    """natalg value -> plain Python data, reading attributes only."""
    if hasattr(x, "terms"):
        return dict(x.terms)
    if hasattr(x, "coeffs"):
        return list(x.coeffs)
    return x


def _eps2(n: int, m: int) -> int:
    return 1 if n == 1 and m == 1 else 0


def _same(got, want) -> bool:
    """Exact equality that ignores int-versus-Fraction representation."""
    if isinstance(got, dict):
        got = {k: v for k, v in got.items() if v}
        want = {k: v for k, v in want.items() if v}
        return got.keys() == want.keys() and all(Fraction(got[k]) == Fraction(want[k]) for k in got)
    return len(got) == len(want) and all(Fraction(a) == Fraction(b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# convolution-cold: divisor-world jobs and their additive twins


def convolution_cold(rng: random.Random, na) -> list[Job]:
    d, s, nat, add = na.dirichlet, na.series, na.nat, na.additive
    sv = O.Sieve(40_000)
    jobs: list[Job] = []

    def conv_is_unit(f, g, ns, shift: int = 0) -> bool:
        # (f * g)(n) = [n = 1] on the sampled n, through the sieve's divisors;
        # shift = 1 reads f and g as 0-based coefficient lists
        return all(sum(f(q - shift) * g(n // q - shift) for q in sv.divisors(n)) == (n == 1) for n in ns)

    def sample(limit: int) -> list[int]:
        return list(range(1, min(limit, 200) + 1)) + [rng.randint(1, limit) for _ in range(200)]

    # convolutive inverses of named functions against closed forms
    named = [
        (d.zeta, (1_000, 8_000), lambda n: sv.mu(n)),
        (d.identity_fn, (1_000, 4_000), lambda n: n * sv.mu(n)),
        (d.liouville, (2_000,), lambda n: sv.mu(n) ** 2),
        (d.id_power(2), (1_000,), lambda n: n * n * sv.mu(n)),
    ]
    for fn, sizes, closed in named:
        for size in sizes:
            jobs.append(Job("dirichlet.inverse_values", lambda fn=fn, size=size: fn.inverse().values(size),
                            lambda r, closed=closed: all(v == closed(n) for n, v in enumerate(r, 1))))
    # ... and of a seeded random invertible function, against f * f^-1 = unit
    table = [0, 1] + [rng.randint(-2, 2) for _ in range(16_000)]
    rf = d.ArithFn(table.__getitem__, "seeded")
    for size in (1_000, 5_000, 16_000):
        ns = sample(size)
        jobs.append(Job("dirichlet.inverse_values", lambda size=size: rf.inverse().values(size),
                        lambda r, ns=ns: conv_is_unit(table.__getitem__, [0, *r].__getitem__, ns)))

    # truncated Dirichlet series
    for size in (1_000, 10_000):
        coeffs = [rng.choice((-1, 1))] + [rng.randint(-3, 3) for _ in range(size - 1)]
        f = s.DirichletSeries(coeffs)
        ns = sample(size)
        jobs.append(Job("series.series_inverse", lambda f=f: s.series_inverse(f),
                        lambda r, c=coeffs, ns=ns: conv_is_unit(c.__getitem__, plain(r).__getitem__, ns, shift=1)))
    for size in (1_000, 4_000):
        a = [rng.randint(-3, 3) for _ in range(size)]
        b = [rng.randint(-3, 3) for _ in range(size)]
        fa, fb = s.DirichletSeries(a), s.DirichletSeries(b)
        ns = sample(size)
        jobs.append(Job("series.series_mul", lambda fa=fa, fb=fb: s.series_mul(fa, fb),
                        lambda r, a=a, b=b, ns=ns: (lambda got: all(
                            got[n - 1] == sum(a[q - 1] * b[n // q - 1] for q in sv.divisors(n)) for n in ns))(plain(r))))

    # second coboundaries on criterion 04's grid: mu everywhere, completely
    # multiplicative samples on coprime pairs, their inverses on 1..60
    def pair(hi: int, coprime: bool = False) -> tuple[int, int]:
        while True:
            n, m = sorted((rng.randint(1, hi), rng.randint(1, hi)))
            if not coprime or math.gcd(n, m) == 1:
                return n, m

    cm = [d.zeta, d.identity_fn, d.id_power(2), d.liouville]
    cm_inv = [g.inverse() for g in (d.zeta, d.identity_fn, d.id_power(3), d.liouville)]
    grid = [(d.moebius_fn, pair(200)) for _ in range(300)]
    grid += [(rng.choice(cm), pair(200, coprime=True)) for _ in range(150)]
    grid += [(rng.choice(cm_inv), pair(60)) for _ in range(100)]
    for phi, (n, m) in grid:
        jobs.append(Job("dirichlet.coboundary2_mul", lambda phi=phi, n=n, m=m: d.coboundary2_mul(phi, n, m),
                        lambda r, n=n, m=m: r == _eps2(n, m)))

    # antipode sweeps with the recursion check on
    a0, b0 = rng.randint(1_000, 4_000), rng.randint(1_000, 4_000)
    for n in range(a0, a0 + 500):
        jobs.append(Job("dirichlet.antipode_mul", lambda n=n: d.antipode_mul(n, check=True),
                        lambda r, n=n: r == n * sv.mu(n)))
    for n in range(b0, b0 + 250):
        jobs.append(Job("dirichlet.antipode_unrenorm", lambda n=n: d.antipode_unrenorm(n, check=True),
                        lambda r, n=n: r == (-1) ** sv.big_omega(n) * n))

    # criterion 10's exponentiation bridge
    c0 = rng.randint(1, 1_900)
    for n in range(c0, c0 + 100):
        jobs.append(Job("dirichlet.check_exponentiation_relation",
                        lambda n=n: d.check_exponentiation_relation(n), lambda r: r is True))

    # inverse of a seeded 2-cochain, checked by legwise convolution
    for upto in (12, 24):
        t2 = [[0] * (upto + 1)] + [[0] + [rng.randint(-2, 2) for _ in range(upto)] for _ in range(upto)]
        t2[1][1] = 1
        c = lambda n, m, t2=t2: t2[n][m]

        def inverse_ok(inv, c=c, upto=upto) -> bool:
            return all(
                sum(c(p, q) * inv[(n // p, m // q)] for p in sv.divisors(n) for q in sv.divisors(m)) == _eps2(n, m)
                for n in range(1, upto + 1) for m in range(1, upto + 1))

        jobs.append(Job("dirichlet.two_cochain_inverse", lambda c=c, upto=upto: d.two_cochain_inverse(c, upto),
                        inverse_ok))

    # additive twins: power-series products in both bases, additive convolution
    for basis, size in (("ordinary", 200), ("divided", 150)):
        a = [rng.randint(-5, 5) for _ in range(size)]
        b = [rng.randint(-5, 5) for _ in range(size)]
        pa, pb = add.PowerSeries(a, basis), add.PowerSeries(b, basis)
        w = (lambda k, r: 1) if basis == "ordinary" else math.comb
        want = [sum(w(k, r) * a[r] * b[k - r] for r in range(k + 1)) for k in range(size)]
        jobs.append(Job("additive.series_multiply", lambda pa=pa, pb=pb: add.series_multiply(pa, pb),
                        lambda r, want=want: _same(plain(r), want)))
    fa = [rng.randint(-5, 5) for _ in range(301)]
    fb = [rng.randint(-5, 5) for _ in range(301)]
    for codomain in ("scalar", "monoid"):
        for n in sorted(rng.randint(0, 300) for _ in range(40)):
            if codomain == "scalar":
                want = sum(fa[r] * fb[n - r] for r in range(n + 1))
            else:
                want = sum(fa[r] + fb[n - r] for r in range(n + 1))
            jobs.append(Job("additive.convolve_add",
                            lambda n=n, cd=codomain: add.convolve_add(fa.__getitem__, fb.__getitem__, n, cd),
                            lambda r, want=want: r == want))

    # 12-13 digit semiprimes: trial division sets the tail
    def prime(lo: int, hi: int) -> int:
        while True:
            p = rng.randrange(lo, hi)
            if O.is_probable_prime(p):
                return p

    for kind in ("nat.factorize", "dirichlet.antipode_mul") * 6:
        p, q = prime(900_000, 1_000_000), prime(1_000_000, 10_000_000)
        if kind == "nat.factorize":
            jobs.append(Job(kind, lambda n=p * q: nat.factorize(n), lambda r, p=p, q=q: tuple(r) == ((p, 1), (q, 1))))
        else:
            jobs.append(Job(kind, lambda n=p * q: d.antipode_mul(n, check=True), lambda r, n=p * q: r == n))
    return jobs


# ---------------------------------------------------------------------------
# combinatorial-cold: symmetric functions, normal ordering, Witt, spectra


def _random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts = list(O.partitions(n))
    return parts[rng.randrange(len(parts))]


def _circle_ok(lam, mu, r) -> bool:
    r = plain(r)
    if not all(Fraction(c).denominator == 1 and c > 0 for c in r.values()):
        return False
    # specialising every variable to 1 is a ring map
    if any(sum(c * O.m_at_ones(nu, k) for nu, c in r.items()) != O.m_at_ones(lam, k) * O.m_at_ones(mu, k)
           for k in range(1, len(lam) + len(mu) + 1)):
        return False
    if O.monomial_product_size(lam, mu) <= 4_000:
        return _same(r, O.monomial_product(lam, mu))
    return True


def _schur_ok(lam, mu, r) -> bool:
    r = plain(r)
    if not all(Fraction(c).denominator == 1 and c > 0 for c in r.values()):
        return False
    w = sum(lam) + sum(mu)
    if any(sum(c * O.s_at_ones(nu, k) for nu, c in r.items()) != O.s_at_ones(lam, k) * O.s_at_ones(mu, k)
           for k in range(1, w + 2)):
        return False
    if w <= 6:
        return _same(r, O.schur_product(lam, mu))
    return True


def _universal_ok(n: int, r, rng: random.Random) -> bool:
    F, G = (list(map(plain, part)) for part in r)
    for idx, poly in enumerate(F + G):
        k = idx % n + 1
        allowed = {f"{p}{q}" for q in range(1, k + 1) if k % q == 0 for p in "wv"}
        if any(Fraction(c).denominator != 1 for c in poly.values()):
            return False
        if any(var not in allowed for mono in poly for var, _ in mono):
            return False
    for _ in range(3):
        u = [rng.randint(-4, 4) for _ in range(n)]
        v = [rng.randint(-4, 4) for _ in range(n)]
        env = {f"w{i}": u[i - 1] for i in range(1, n + 1)} | {f"v{i}": v[i - 1] for i in range(1, n + 1)}
        if [O.eval_poly(f, env) for f in F] != O.witt_op(u, v, "add"):
            return False
        if [O.eval_poly(g, env) for g in G] != O.witt_op(u, v, "mul"):
            return False
    return True


def _charpoly_ok(r, blocks: list[int]) -> bool:
    want = O.poly_from_roots(blocks)
    want = [0] * (sum(blocks) - len(blocks)) + want
    return _same(list(r), want)


def combinatorial_cold(rng: random.Random, na) -> list[Job]:
    sf, no, wt, sp = na.symfun, na.normal_order, na.witt, na.spectral
    jobs: list[Job] = []

    for _ in range(400):
        w = rng.randint(2, 12)
        a = rng.randint(1, w - 1)
        lam, mu = _random_partition(rng, a), _random_partition(rng, w - a)
        jobs.append(Job("symfun.circle_product", lambda lam=lam, mu=mu: sf.circle_product(lam, mu),
                        lambda r, lam=lam, mu=mu: _circle_ok(lam, mu, r)))
    for w in range(2, 10):
        for _ in range(4):
            a = rng.randint(1, w - 1)
            lam, mu = _random_partition(rng, a), _random_partition(rng, w - a)
            jobs.append(Job("symfun.schur_product_lr", lambda lam=lam, mu=mu: sf.schur_product_lr(lam, mu),
                            lambda r, lam=lam, mu=mu: _schur_ok(lam, mu, r)))
    for w in (6, 7, 8):
        jobs.append(Job("symfun.to_h_basis", lambda w=w: sf.to_h_basis(sf.eta_complete(w), w),
                        lambda r, w=w: _same(plain(r), {(w,): 1})))

    stirling = O.stirling2_table(40)
    for n in range(1, 13):
        jobs.append(Job("normal_order.circle_power", lambda n=n: no.circle_power((1, 1), n),
                        lambda r, n=n: _same(plain(r), {(k, k): stirling[n][k] for k in range(1, n + 1)})))
    for n in sorted(rng.sample(range(25, 41), 4)):
        for k in range(1, 26):
            jobs.append(Job("normal_order.stirling2", lambda n=n, k=k: no.stirling2(n, k),
                            lambda r, n=n, k=k: r == stirling[n][k]))

    for n in range(1, 9):
        check_rng = random.Random(rng.random())
        jobs.append(Job("witt.universal_polys", lambda n=n: wt.universal_polys(n),
                        lambda r, n=n, cr=check_rng: _universal_ok(n, r, cr)))
    for op in ("add", "mul") * 150:
        n = rng.randint(4, 8)
        u = [rng.randint(-9, 9) for _ in range(n)]
        v = [rng.randint(-9, 9) for _ in range(n)]
        fn = wt.witt_add if op == "add" else wt.witt_mul
        jobs.append(Job(f"witt.witt_{op}", lambda fn=fn, u=u, v=v: fn(u, v),
                        lambda r, u=u, v=v, op=op: _same(r, O.witt_op(u, v, op))))
    for _ in range(80):
        w = [rng.randint(-9, 9) for _ in range(rng.randint(4, 10))]
        jobs.append(Job("witt.w_to_e", lambda w=w: wt.w_to_e(w), lambda r, w=w: _same(r, O.product_series(w))))
        jobs.append(Job("witt.e_to_w", lambda e=w: wt.e_to_w(e), lambda r, e=w: _same(O.product_series(r), e)))

    # Gram products of the two tables and their exact spectra: B is block
    # diagonal with all-ones blocks, one per recombination value.  The sizes
    # are fixed, so the heaviest jobs do not depend on the seed, and the six
    # identical charpolys at N = 24 fill the ranks around the 99th
    # percentile, which would otherwise fall into a gap between two jobs.
    tables = [("add", n, 1) for n in (12, 14, 16, 18, 20)] + [("mul", n, 1) for n in (12, 16, 20)]
    tables += [("mul", 24, 6), ("mul", 100, 0)]
    for kind, n, charpolys in tables:
        if kind == "add":
            cols = [(i + j, (i, j)) for i, j in O.add_table_cols(n)]
            blocks = [v + 1 for v in range(n + 1)]
            make = sp.table_matrix_add
        else:
            cols = [(i * j, (i, j)) for i, j in O.mul_table_cols(n)]
            blocks = [len(O.Sieve(n).divisors(v)) for v in range(1, n + 1)]
            make = sp.table_matrix_mul
        cell: list = []  # the Gram matrix, for the charpoly jobs that follow
        jobs.append(Job("spectral.gram_B", lambda make=make, n=n, cell=cell: cell.append(sp.gram_B(make(n))) or cell[0],
                        lambda r, cols=cols: r == O.gram_b_blocks(cols)))
        for _ in range(charpolys):
            jobs.append(Job("spectral.charpoly", lambda cell=cell: sp.charpoly(cell[0]),
                            lambda r, blocks=blocks: _charpoly_ok(r, blocks)))
    return jobs


# ---------------------------------------------------------------------------
# session-warm: a skewed stream of small CLI queries in one process

_ARITH = ("zeta", "moebius", "identity", "liouville", "unit", "id2", "id3")
_SERIES = ("zeta", "zeta_squared", "ordered_factorizations", "lambda", "moebius", "identity_shift")


def _vec(rng: random.Random, n: int, lead_sign: int) -> str:
    """Comma-separated integers; lead_sign fixes the sign of the first entry."""
    first = lead_sign * rng.randint(1, 9)
    return ",".join(str(x) for x in [first] + [rng.randint(-9, 9) for _ in range(n - 1)])


def _witt_key(rng: random.Random, lead_sign: int) -> tuple[str, ...]:
    op = rng.choice(("ghost", "add", "mul", "e2w"))
    n = rng.randint(2, 6)
    if op in ("add", "mul"):
        return ("witt", op, _vec(rng, n, lead_sign), _vec(rng, n, lead_sign))
    return ("witt", op, _vec(rng, n, lead_sign))


def _part_text(rng: random.Random, w: int) -> str:
    return ",".join(map(str, _random_partition(rng, w)))


def _key(rng: random.Random, cls: str) -> tuple[str, ...]:
    """One CLI query of the given class with seeded arguments."""
    if cls == "coproduct":
        fam = rng.choice(("add", "add-unrenorm", "mul", "mul-unrenorm"))
        n = rng.randint(0, 30) if fam.startswith("add") else rng.randint(1, 5_000)
        return (cls, fam, str(n))
    if cls == "antipode":
        fam = rng.choice(("add", "mul", "unrenorm"))
        return (cls, fam, str(rng.randint(1, 1_000_000)))
    if cls == "convolve":
        return (cls, "--f", rng.choice(_ARITH), "--g", rng.choice(_ARITH), "--upto", str(rng.randint(5, 40)))
    if cls == "series":
        key = (cls, rng.choice(_SERIES), "--upto", str(rng.randint(10, 200)))
        return key + ("--csv",) if rng.random() < 0.5 else key
    if cls == "cocycle":
        return (cls, "--phi", rng.choice(_ARITH), "--upto", str(rng.randint(1, 12)))
    if cls == "branch":
        op = rng.choice(("sub", "div", "derive"))
        b = rng.choice((2, 3, 5, 7, 11, 13)) if op == "derive" else rng.randint(1, 50)
        return (cls, op, str(b), str(rng.randint(1, 10_000)))
    if cls in ("circle", "lr"):
        w = rng.randint(2, 6)
        a = rng.randint(1, w - 1)
        key = ("symfun", cls, _part_text(rng, a), _part_text(rng, w - a))
        return key + ("--json",) if rng.random() < 0.3 else key
    if cls == "normalorder":
        return (cls, "power", str(rng.randint(1, 10)))
    if cls == "stirling":
        return (cls, str(rng.randint(1, 25)))
    if cls == "witt":
        return _witt_key(rng, lead_sign=1)
    if cls == "polys":
        return ("witt", "polys", "8")
    if cls == "defect":
        return _witt_key(rng, lead_sign=-1)
    return (cls, rng.choice(("table", "gram")), "--upto", str(rng.randint(1, 6)))


def _frac(x) -> str:
    return str(Fraction(x))


def _render_terms(items, label) -> str:
    """'c*label' chunks joined by ' + ', coefficient 1 omitted, '0' if empty."""
    chunks = [label(k) if c == 1 else f"{_frac(c)}*{label(k)}" for k, c in items if c]
    return " + ".join(chunks) if chunks else "0"


def _csv(rows, row_labels, col_labels=None) -> str:
    lab = lambda x: "|".join(map(str, x)) if isinstance(x, tuple) else str(x)
    lines = [",".join(["row"] + [lab(c) for c in col_labels])] if col_labels else []
    lines += [",".join([lab(r)] + [str(v) for v in row]) for r, row in zip(row_labels, rows)]
    return "\n".join(lines) + "\n"


def expected_output(argv: tuple[str, ...]):
    """What natalg should print for argv: a string, or a predicate on the
    printed text where the exact rendering is not worth re-deriving."""
    cmd, rest = argv[0], argv[1:]
    if cmd == "coproduct":
        fam, n = rest[0], int(rest[1])
        if fam == "add":
            terms = [((r, n - r), 1) for r in range(n + 1)]
        elif fam == "add-unrenorm":
            terms = [((r, n - r), math.comb(n, r)) for r in range(n + 1)]
        else:
            divs = [q for q in range(1, n + 1) if n % q == 0]
            weight = (lambda q: 1) if fam == "mul" else (lambda q: O.multinomial_weight(q, n))
            terms = [((q, n // q), weight(q)) for q in divs]
        return _render_terms(sorted(terms), lambda k: f"({k[0]}, {k[1]})") + "\n"
    if cmd == "antipode":
        fam, n = rest[0], int(rest[1])
        fac = O.trial_factor(n)
        if fam == "add":
            return f"{-n}\n"
        if fam == "mul":
            return f"{0 if any(r > 1 for _, r in fac) else n * (-1) ** len(fac)}\n"
        return f"{(-1) ** sum(r for _, r in fac) * n}\n"
    if cmd == "convolve":
        f, g, upto = O.named_arith(rest[1]), O.named_arith(rest[3]), int(rest[5])
        return "".join(
            f"{n} {_frac(sum(f(q) * g(n // q) for q in range(1, n + 1) if n % q == 0))}\n"
            for n in range(1, upto + 1))
    if cmd == "series":
        name, upto = rest[0], int(rest[2])
        h = O.ordered_factorizations(upto)
        mu = O.mu_trial
        value = {
            "zeta": lambda n: 1,
            "zeta_squared": lambda n: sum(1 for q in range(1, n + 1) if n % q == 0),
            "ordered_factorizations": lambda n: h[n],
            "lambda": lambda n: n % 2,
            "moebius": mu,
            "identity_shift": lambda n: n * mu(n),
        }[name]
        sep = "," if "--csv" in rest else " "
        return "".join(f"{n}{sep}{value(n)}\n" for n in range(1, upto + 1))
    if cmd == "cocycle":
        name, upto = rest[1], int(rest[3])
        # a completely multiplicative phi first deviates at (2, 2) with value
        # -phi(2)^2; moebius and unit are 2-cocycles on the whole grid
        if name in ("moebius", "unit") or upto < 2:
            return f"1-cocycle through {upto}\n"
        return f"deviates at (2, 2): {-O.named_arith(name)(2) ** 2}\n"
    if cmd == "branch":
        op, b, n = rest[0], int(rest[1]), int(rest[2])
        if op == "sub":
            return f"{n - b if n >= b else 0}\n"
        if op == "div":
            return f"{n // b if n % b == 0 else 0}\n"
        r = 0
        while n % b ** (r + 1) == 0:
            r += 1
        return "0\n" if r == 0 else (f"{n // b}\n" if r == 1 else f"{r}*{n // b}\n")
    if cmd == "symfun":
        lam = tuple(int(p) for p in rest[1].split(","))
        mu = tuple(int(p) for p in rest[2].split(","))
        prod = O.monomial_product(lam, mu) if rest[0] == "circle" else O.schur_product(lam, mu)
        items = sorted(prod.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        if "--json" in rest:
            payload = {"basis": "m" if rest[0] == "circle" else "s",
                       "terms": [{"partition": list(p), "coeff": str(c)} for p, c in items]}
            return json.dumps(payload, sort_keys=True) + "\n"
        basis = "m" if rest[0] == "circle" else "s"
        return _render_terms(items, lambda p: f"{basis}[{','.join(map(str, p))}]") + "\n"
    if cmd == "normalorder":
        n = int(rest[1])
        st = O.stirling2_table(n)
        word = lambda k: ":a† a:" if k == 1 else f":a†^{k} a^{k}:"
        return " + ".join(word(k) if st[n][k] == 1 else f"{st[n][k]} {word(k)}" for k in range(1, n + 1)) + "\n"
    if cmd == "stirling":
        n = int(rest[0])
        st = O.stirling2_table(n)
        return " ".join(str(st[n][k]) for k in range(1, n + 1)) + "\n"
    if cmd == "witt":
        op, vecs = rest[0], [[Fraction(x) for x in v.split(",")] for v in rest[1:]]
        if op == "ghost":
            out = O.ghost(vecs[0])
        elif op in ("add", "mul"):
            out = O.witt_op(vecs[0], vecs[1], op)
        elif op == "e2w":
            out = _e_to_w(vecs[0])
        else:
            return lambda text, n=int(rest[1]): _polys_text_ok(text, n)
        return ",".join(_frac(x) for x in out) + "\n"
    # appendix
    n = int(rest[2])
    acols, mcols = O.add_table_cols(n), O.mul_table_cols(n)
    arows = [[1 if i + j == v else 0 for i, j in acols] for v in range(n + 1)]
    mrows = [[1 if i * j == v else 0 for i, j in mcols] for v in range(1, n + 1)]
    if rest[0] == "table":
        return ("# additive table\n" + _csv(arows, range(n + 1), acols)
                + "# multiplicative table\n" + _csv(mrows, range(1, n + 1), mcols))
    diag = lambda sizes: [[s if i == j else 0 for j in range(len(sizes))] for i, s in enumerate(sizes)]
    msizes = [sum(1 for q in range(1, v + 1) if v % q == 0) for v in range(1, n + 1)]
    return ("# additive A\n" + _csv(diag([v + 1 for v in range(n + 1)]), range(n + 1))
            + "# additive B\n" + _csv(O.gram_b_blocks([(i + j, 0) for i, j in acols]), acols)
            + "# multiplicative A\n" + _csv(diag(msizes), range(1, n + 1))
            + "# multiplicative B\n" + _csv(O.gram_b_blocks([(i * j, 0) for i, j in mcols]), mcols))


def _e_to_w(e: list[Fraction]) -> list[Fraction]:
    """Coordinates whose product series has coefficients e, degree by degree."""
    w: list[Fraction] = []
    for k in range(1, len(e) + 1):
        gap = e[k - 1] - O.product_series(w + [Fraction(0)])[k - 1]
        w.append(gap if k % 2 else -gap)
    return w


def _polys_text_ok(text: str, n: int) -> bool:
    lines = text.splitlines()
    if [ln.split(" = ")[0] for ln in lines] != [f"{t}{i}" for t in "FG" for i in range(1, n + 1)]:
        return False
    polys = [O.parse_poly(ln.split(" = ", 1)[1]) for ln in lines]
    rng = random.Random(n)
    for _ in range(3):
        u = [rng.randint(-4, 4) for _ in range(n)]
        v = [rng.randint(-4, 4) for _ in range(n)]
        env = {f"w{i}": u[i - 1] for i in range(1, n + 1)} | {f"v{i}": v[i - 1] for i in range(1, n + 1)}
        if [O.eval_poly(p, env) for p in polys] != O.witt_op(u, v, "add") + O.witt_op(u, v, "mul"):
            return False
    return True


def run_cli(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code
    return code, out.getvalue()


STREAM_LENGTH = 1_520  # 38 whole cycles
# queries of each class in every cycle of 40; the order inside a cycle is
# shuffled.  Fixed counts keep the stream's cost from depending on which
# classes a seed happens to favour.  The one "polys" query, the universal
# polynomials to index 8, is uncached and the heaviest, so its 38 repeats
# set job_p99_ms whatever the seed.  2 in 40 are Witt vectors with a leading
# minus, which natalg rejects today (argparse reads '-1,2' as an option).
CYCLE = {"coproduct": 5, "antipode": 6, "convolve": 2, "series": 3, "cocycle": 1, "branch": 4,
         "circle": 3, "lr": 2, "normalorder": 2, "stirling": 2, "witt": 5, "polys": 1,
         "appendix": 2, "defect": 2}
POOL_PER_CLASS = 30


def session_warm(rng: random.Random, na) -> list[Job]:
    main = na.cli.main
    pools = {cls: [_key(rng, cls) for _ in range(POOL_PER_CLASS)] for cls in CYCLE}
    zipf = list(itertools.accumulate(1 / (i + 1) ** 0.8 for i in range(POOL_PER_CLASS)))
    expected: dict[tuple[str, ...], Any] = {}

    def check(result, key) -> bool:
        code, text = result
        if key not in expected:
            expected[key] = expected_output(key)
        want = expected[key]
        return code == 0 and (want(text) if callable(want) else text == want)

    classes: list[str] = []
    while len(classes) < STREAM_LENGTH:
        cycle = [cls for cls, n in CYCLE.items() for _ in range(n)]
        rng.shuffle(cycle)
        classes += cycle
    jobs = []
    for cls in classes[:STREAM_LENGTH]:
        key = rng.choices(pools[cls], cum_weights=zipf)[0]
        jobs.append(Job("cli.main", lambda key=key: run_cli(main, key),
                        lambda r, key=key: check(r, key), known_defect=cls == "defect"))
    return jobs


WORKLOADS = {
    "convolution-cold": convolution_cold,
    "combinatorial-cold": combinatorial_cold,
    "session-warm": session_warm,
}
