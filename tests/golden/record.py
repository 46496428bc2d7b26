"""Record the golden CLI corpus and the table of public return types.

    PYTHONPATH=src python tests/golden/record.py

writes two files next to this script:

- cli_corpus.json: a few hundred argv, each with the stdout, stderr and exit
  code of `natalg` run in-process with COLUMNS=80 (argparse wraps usage text
  to the terminal width, so the width is fixed here and in the replay);
- return_types.txt: one line per call of a public function or method of
  `linear`, `witt`, `symfun` and `normal_order` on a fixed input, giving the
  type signature and the repr of the value.

tests/test_golden.py replays both.  A change that alters either file on
purpose regenerates it and names every changed line in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli_corpus.json"
TYPES = HERE / "return_types.txt"

ARITH = ("zeta", "moebius", "identity", "liouville", "unit", "id2", "id0")
SERIES = ("zeta", "zeta_squared", "ordered_factorizations", "lambda", "moebius",
          "identity_shift")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process `natalg` call; the
    caller fixes COLUMNS."""
    from natalg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _partition(rng: random.Random, w: int) -> str:
    parts = []
    while w:
        p = rng.randint(1, w)
        parts.append(p)
        w -= p
    return ",".join(map(str, sorted(parts, reverse=True)))


def _vector(rng: random.Random, n: int) -> str:
    entries = []
    for _ in range(n):
        if rng.random() < 0.2:
            entries.append(f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}")
        else:
            entries.append(str(rng.randint(-9, 9)))
    entries[0] = entries[0].lstrip("-")  # a leading minus is an option to argparse
    return ",".join(entries)


def corpus_argv() -> list[list[str]]:
    """Every subcommand, family and error path, on small sizes."""
    rng = random.Random(20)
    argv: list[list[str]] = []
    add = argv.append

    add([])
    add(["--help"])
    add(["nope"])
    for cmd in ("coproduct", "antipode", "convolve", "series", "cocycle", "branch",
                "symfun", "normalorder", "stirling", "witt", "appendix", "selftest"):
        add([cmd, "--help"])
    add(["selftest", "extra"])

    for fam in ("add", "add-unrenorm"):
        for n in (0, 1, 2, 3, 5, 8, -1):
            add(["coproduct", fam, str(n)])
    for fam in ("mul", "mul-unrenorm"):
        for n in (1, 2, 4, 6, 12, 30, 64, 360, 0, -4):
            add(["coproduct", fam, str(n)])
    add(["coproduct", "nope", "3"])
    add(["coproduct", "add", "x"])
    add(["coproduct", "add"])

    for fam in ("add", "mul", "unrenorm"):
        for n in (1, 2, 5, 6, 8, 30, 97, 360, 1001, 0, -2):
            add(["antipode", fam, str(n)])
    add(["antipode", "mul", "1000000000000000003"])
    add(["antipode", "sideways", "3"])

    for _ in range(14):
        add(["convolve", "--f", rng.choice(ARITH), "--g", rng.choice(ARITH),
             "--upto", str(rng.randint(1, 12))])
    add(["convolve", "--f", "nope", "--g", "zeta", "--upto", "3"])
    add(["convolve", "--f", "zeta", "--g", "zeta", "--upto", "0"])
    add(["convolve", "--f", "zeta", "--upto", "3"])

    for name in SERIES:
        add(["series", name, "--upto", "12"])
        add(["series", name, "--upto", "7", "--csv"])
    add(["series", "nope", "--upto", "3"])
    add(["series", "zeta", "--upto", "0"])
    add(["series", "zeta"])

    for phi in ARITH:
        add(["cocycle", "--phi", phi, "--upto", str(rng.randint(1, 6))])
    add(["cocycle", "--phi", "nope", "--upto", "2"])

    for op in ("sub", "div", "derive"):
        for _ in range(6):
            b = rng.choice((2, 3, 5, 7)) if op == "derive" else rng.randint(1, 12)
            add(["branch", op, str(b), str(rng.randint(1, 400))])
    add(["branch", "derive", "4", "12"])
    add(["branch", "div", "0", "12"])
    add(["branch", "sub", "3", "-1"])
    add(["branch", "mod", "3", "4"])

    for op in ("circle", "lr"):
        for _ in range(16):
            w = rng.randint(2, 6)
            a = rng.randint(1, w - 1)
            key = ["symfun", op, _partition(rng, a), _partition(rng, w - a)]
            add(key + ["--json"] if rng.random() < 0.3 else key)
        add(["symfun", op, "0", "2,1"])
        add(["symfun", op, "-", "1"])
        add(["symfun", op, "a,b", "1"])
        add(["symfun", op, "1,0", "1"])
    add(["symfun", "cross", "1", "1"])

    for n in range(0, 9):
        add(["normalorder", "power", str(n)])
    add(["normalorder", "power", "-1"])
    add(["normalorder", "root", "3"])

    for n in range(-1, 13):
        add(["stirling", str(n)])

    for op in ("ghost", "e2w"):
        for _ in range(10):
            add(["witt", op, _vector(rng, rng.randint(1, 6))])
    for op in ("add", "mul"):
        for _ in range(10):
            n = rng.randint(1, 6)
            add(["witt", op, _vector(rng, n), _vector(rng, n)])
        add(["witt", op, "1,2", "1,2,3"])
        add(["witt", op, "1,2"])
    for n in range(0, 10):
        add(["witt", "polys", str(n)])
    add(["witt", "polys"])
    add(["witt", "ghost"])
    add(["witt", "ghost", "1,2", "3"])
    add(["witt", "ghost", "1,x"])
    add(["witt", "ghost", "1/0"])
    add(["witt", "ghost", "-1,2"])
    add(["witt", "square", "1"])

    for what in ("gram", "table"):
        for n in range(1, 7):
            add(["appendix", what, "--upto", str(n)])
    add(["appendix", "gram", "--upto", "0"])
    add(["appendix", "chart", "--upto", "2"])
    return argv


def record_corpus() -> list[dict]:
    return [dict(zip(("argv", "code", "stdout", "stderr"), (argv, *run_cli(argv))))
            for argv in corpus_argv()]


# ---------------------------------------------------------------------------
# public return types


def signature(value) -> str:
    """The type of a value, with the scalar types inside it:
    LinComb[int|Fraction], list[Fraction], tuple[...], ..."""
    if hasattr(value, "terms"):  # LinComb and MultiPoly
        coeffs = sorted({type(c).__name__ for c in value.terms.values()})
        return f"{type(value).__name__}[{'|'.join(coeffs)}]"
    if isinstance(value, (list, tuple, set, frozenset)):
        inner = sorted({signature(v) for v in value})
        return f"{type(value).__name__}[{'|'.join(inner)}]"
    if isinstance(value, dict):
        keys = sorted({signature(k) for k in value})
        vals = sorted({signature(v) for v in value.values()})
        return f"dict[{'|'.join(keys)}: {'|'.join(vals)}]"
    return type(value).__name__


def type_calls() -> list[tuple[str, object]]:
    """(label, thunk) for each public call on a fixed input."""
    from natalg import normal_order as no
    from natalg import symfun as sf
    from natalg import witt as wt
    from natalg.linear import LinComb, exact_div, normalize

    x = LinComb({1: 2, 2: Fraction(1, 2), 3: Fraction(4, 2)})
    y = LinComb({2: 1, 4: -3})
    w1, w2 = wt.MultiPoly.var("w1"), wt.MultiPoly.var("w2")
    p = (w1 + 1) * (w2 - Fraction(1, 2))
    W = [wt.MultiPoly.var(f"w{i}") for i in range(1, 4)]
    E = [wt.MultiPoly.var(f"e{i}") for i in range(1, 4)]
    half = Fraction(1, 2)
    return [
        ("linear.LinComb({1: 2, 2: 1/2, 3: 4/2})", lambda: x),
        ("linear.LinComb.single('k')", lambda: LinComb.single("k")),
        ("linear.LinComb.single('k', 2.5)", lambda: LinComb.single("k", 2.5)),
        ("linear.LinComb.zero()", lambda: LinComb.zero()),
        ("linear x[1]", lambda: x[1]),
        ("linear x[2]", lambda: x[2]),
        ("linear x[9]", lambda: x[9]),
        ("linear list(x)", lambda: list(x)),
        ("linear x + y", lambda: x + y),
        ("linear x - y", lambda: x - y),
        ("linear -x", lambda: -x),
        ("linear x.scale(3)", lambda: x.scale(3)),
        ("linear x.scale(1/2)", lambda: x.scale(half)),
        ("linear x.scale(0)", lambda: x.scale(0)),
        ("linear 2 * y", lambda: 2 * y),
        ("linear x.map_keys(k % 2)", lambda: x.map_keys(lambda k: k % 2)),
        ("linear x.bilinear(y, k + l)",
         lambda: x.bilinear(y, lambda a, b: LinComb.single(a + b))),
        ("linear x.sorted_terms()", lambda: x.sorted_terms()),
        ("linear.normalize(4/2)", lambda: normalize(Fraction(4, 2))),
        ("linear.normalize(0.5)", lambda: normalize(0.5)),
        ("linear.exact_div(6, 3)", lambda: exact_div(6, 3)),
        ("linear.exact_div(6, 4)", lambda: exact_div(6, 4)),

        ("witt.MultiPoly.var('w1')", lambda: w1),
        ("witt.MultiPoly.const(3)", lambda: wt.MultiPoly.const(3)),
        ("witt.MultiPoly.const(1/2)", lambda: wt.MultiPoly.const(half)),
        ("witt p = (w1 + 1) * (w2 - 1/2)", lambda: p),
        ("witt -p", lambda: -p),
        ("witt p + 1", lambda: p + 1),
        ("witt 1 - p", lambda: 1 - p),
        ("witt 2 * p", lambda: 2 * p),
        ("witt p * w1", lambda: p * w1),
        ("witt p / 2", lambda: p / 2),
        ("witt p ** 2", lambda: p ** 2),
        ("witt p.scale(2)", lambda: p.scale(2)),
        ("witt p == 0", lambda: p == 0),
        ("witt p - p == 0", lambda: p - p == 0),
        ("witt p.variables()", lambda: p.variables()),
        ("witt p.is_integral()", lambda: p.is_integral()),
        ("witt (2 * p).is_integral()", lambda: (2 * p).is_integral()),
        ("witt p.substitute({'w1': w2, 'w2': 3})", lambda: p.substitute({"w1": w2, "w2": 3})),
        ("witt p.eval({'w1': 1, 'w2': 2})", lambda: p.eval({"w1": 1, "w2": 2})),
        ("witt p.render()", lambda: p.render()),
        ("witt.ghost([1, 2, 3])", lambda: wt.ghost([1, 2, 3])),
        ("witt.ghost([1/2, -1])", lambda: wt.ghost([half, -1])),
        ("witt.ghost([])", lambda: wt.ghost([])),
        ("witt.ghost_sym(3)", lambda: wt.ghost_sym(3)),
        ("witt.ghost_sym(2, 'v')", lambda: wt.ghost_sym(2, "v")),
        ("witt.ghost_inverse([1, 3, 4])", lambda: wt.ghost_inverse([1, 3, 4])),
        ("witt.ghost_inverse([1/2, 1])", lambda: wt.ghost_inverse([half, 1])),
        ("witt.witt_add([1, 2, 3], [4, 5, 6])", lambda: wt.witt_add([1, 2, 3], [4, 5, 6])),
        ("witt.witt_mul([1, 2, 3], [4, 5, 6])", lambda: wt.witt_mul([1, 2, 3], [4, 5, 6])),
        ("witt.witt_add([1/2], [1/2])", lambda: wt.witt_add([half], [half])),
        ("witt.universal_polys(3)", lambda: wt.universal_polys(3)),
        ("witt.lambda_op(2, -3)", lambda: wt.lambda_op(2, -3)),
        ("witt.lambda_iter_identity(5)", lambda: wt.lambda_iter_identity(5)),
        ("witt.adams_op(2, [1, 2, 3, 4])", lambda: wt.adams_op(2, [1, 2, 3, 4])),
        ("witt.w_to_e([1, 2, 3])", lambda: wt.w_to_e([1, 2, 3])),
        ("witt.w_to_e([1/2, 1])", lambda: wt.w_to_e([half, 1])),
        ("witt.w_to_e(w1..w3)", lambda: wt.w_to_e(W)),
        ("witt.e_to_w([1, 2, 3])", lambda: wt.e_to_w([1, 2, 3])),
        ("witt.e_to_w(e1..e3)", lambda: wt.e_to_w(E)),
        ("witt.log_derivative_L([1, 1, 0, 0])", lambda: wt.log_derivative_L([1, 1, 0, 0])),
        ("witt.log_derivative_L([1, 1/2, 0])", lambda: wt.log_derivative_L([1, half, 0])),

        ("symfun.weight((3, 1))", lambda: sf.weight((3, 1))),
        ("symfun.mult_map((2, 2, 1))", lambda: sf.mult_map((2, 2, 1))),
        ("symfun.from_mult({2: 2, 1: 1})", lambda: sf.from_mult({2: 2, 1: 1})),
        ("symfun.partitions_of(4)", lambda: sf.partitions_of(4)),
        ("symfun.div_product((2, 1), (2,))", lambda: sf.div_product((2, 1), (2,))),
        ("symfun.sym_mul(m[1,1], m[1])",
         lambda: sf.sym_mul(LinComb.single((1, 1)), LinComb.single((1,)))),
        ("symfun.pleth_coproduct((2, 1, 1))", lambda: sf.pleth_coproduct((2, 1, 1))),
        ("symfun.laplace_pairing((2, 1), (1, 1))", lambda: sf.laplace_pairing((2, 1), (1, 1))),
        ("symfun.circle_product((2, 1), (1, 1))", lambda: sf.circle_product((2, 1), (1, 1))),
        ("symfun.circle_sum(m[1] + m[2], m[1])",
         lambda: sf.circle_sum(LinComb({(1,): 1, (2,): 1}), LinComb.single((1,)))),
        ("symfun.monomial_oracle((1,), (1,), 2)", lambda: sf.monomial_oracle((1,), (1,), 2)),
        ("symfun.kostka((2, 1), (1, 1, 1))", lambda: sf.kostka((2, 1), (1, 1, 1))),
        ("symfun.schur_product_lr((2, 1), (1,))", lambda: sf.schur_product_lr((2, 1), (1,))),
        ("symfun.schur_product_oracle((2, 1), (1,))", lambda: sf.schur_product_oracle((2, 1), (1,))),
        ("symfun.eta_complete(3)", lambda: sf.eta_complete(3)),
        ("symfun.to_h_basis(eta_complete(3), 3)", lambda: sf.to_h_basis(sf.eta_complete(3), 3)),
        ("symfun.to_h_basis(m[1,1], 2)", lambda: sf.to_h_basis(LinComb.single((1, 1)), 2)),
        ("symfun.dominates((3,), (2, 1))", lambda: sf.dominates((3,), (2, 1))),
        ("symfun.render_sym(circle_product((1,), (1,)))",
         lambda: sf.render_sym(sf.circle_product((1,), (1,)))),

        ("normal_order.pairing_F((0, 2), (2, 0))", lambda: no.pairing_F((0, 2), (2, 0))),
        ("normal_order.pairing_F((1, 2), (2, 0))", lambda: no.pairing_F((1, 2), (2, 0))),
        ("normal_order.circle_op((1, 2), (2, 1))", lambda: no.circle_op((1, 2), (2, 1))),
        ("normal_order.circle_op_via_pairing((1, 2), (2, 1))",
         lambda: no.circle_op_via_pairing((1, 2), (2, 1))),
        ("normal_order.circle_op_sum(T, T)",
         lambda: no.circle_op_sum(LinComb.single((1, 1)), LinComb.single((1, 1)))),
        ("normal_order.circle_power((1, 1), 3)", lambda: no.circle_power((1, 1), 3)),
        ("normal_order.derive_annihilate(3)", lambda: no.derive_annihilate(3)),
        ("normal_order.ccr_check(3)", lambda: no.ccr_check(3)),
        ("normal_order.inner_product(2, 2)", lambda: no.inner_product(2, 2)),
        ("normal_order.inner_product(2, 3)", lambda: no.inner_product(2, 3)),
        ("normal_order.stirling2(5, 2)", lambda: no.stirling2(5, 2)),
        ("normal_order.stirling2_rec(5, 2)", lambda: no.stirling2_rec(5, 2)),
        ("normal_order.stirling2_from_circle(5, 2)", lambda: no.stirling2_from_circle(5, 2)),
        ("normal_order.rota_baxter_R(T)", lambda: no.rota_baxter_R(LinComb.single((1, 1)))),
        ("normal_order.R_iter(3)", lambda: no.R_iter(3)),
        ("normal_order.main_theorem_check(4)", lambda: no.main_theorem_check(4)),
        ("normal_order.rb_identity_diagnostic(T, T)",
         lambda: no.rb_identity_diagnostic(LinComb.single((1, 1)), LinComb.single((1, 1)))),
        ("normal_order.render_op(circle_power((1, 1), 3))",
         lambda: no.render_op(no.circle_power((1, 1), 3))),
    ]


def type_line(label: str, thunk) -> str:
    try:
        value = thunk()
    except Exception as exc:
        return f"{label} -> raises {type(exc).__name__}"
    if isinstance(value, set):  # in a fixed order: string hashes vary by process
        text = "{" + ", ".join(sorted(map(repr, value))) + "}"
    else:
        text = repr(value)
    return f"{label} -> {signature(value)} = {text}"


def type_table() -> list[str]:
    return [type_line(label, thunk) for label, thunk in type_calls()]


def main() -> int:
    os.environ["COLUMNS"] = "80"
    CORPUS.write_text(json.dumps(record_corpus(), indent=0, ensure_ascii=False) + "\n")
    TYPES.write_text("\n".join(type_table()) + "\n")
    print(f"wrote {CORPUS.name} and {TYPES.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
