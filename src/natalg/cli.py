"""Batch command line for the package.

Every subcommand is deterministic: the same argv produces byte-identical
stdout.  Exit codes: 0 success, 1 domain error (a precondition was violated),
2 usage error (argparse).  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import additive, dirichlet, normal_order, series, spectral, symfun, witt
from .linear import LinComb

__all__ = ["main"]


# ---------------------------------------------------------------------------
# parsing and rendering helpers


def _parse_partition(text: str) -> tuple[int, ...]:
    if text in ("", "0", "-"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"partition must be comma-separated integers, got {text!r}")
    if any(p < 1 for p in parts):
        raise ValueError("partition parts must be positive")
    return tuple(sorted(parts, reverse=True))


def _count(value: int | str, name: str) -> int:
    """A command-line count (--upto, witt polys N): an integer >= 1, else a domain error."""
    try:
        n = int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if n < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {n}")
    return n


def _parse_vector(text: str) -> list[Fraction]:
    try:
        return [Fraction(p) for p in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"vector must be comma-separated rationals, got {text!r}")


def _arith_fn(name: str) -> dirichlet.ArithFn:
    table = {
        "zeta": dirichlet.zeta,
        "moebius": dirichlet.moebius_fn,
        "identity": dirichlet.identity_fn,
        "liouville": dirichlet.liouville,
        "unit": dirichlet.unit_fn,
    }
    if name in table:
        return table[name]
    if name.startswith("id") and name[2:].isdigit():
        return dirichlet.id_power(int(name[2:]))
    raise ValueError(
        f"unknown arithmetic function {name!r}; "
        "expected zeta, moebius, identity, liouville, unit, or idK"
    )


def _render_pairs(lc: LinComb) -> str:
    if not lc:
        return "0"
    chunks = []
    for key, c in sorted(lc.terms.items()):
        body = f"({key[0]}, {key[1]})"
        chunks.append(body if c == 1 else f"{c}*{body}")
    return " + ".join(chunks)


def _render_ints(lc: LinComb) -> str:
    if not lc:
        return "0"
    chunks = []
    for key, c in sorted(lc.terms.items()):
        chunks.append(str(key) if c == 1 else f"{c}*{key}")
    return " + ".join(chunks)


def _vec_str(v) -> str:
    return ",".join(str(x) for x in v)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_coproduct(args) -> int:
    fam, n = args.family, args.n
    if fam == "add":
        lc = additive.coproduct_add(n)
    elif fam == "add-unrenorm":
        lc = additive.coproduct_add_unrenorm(n)
    elif fam == "mul":
        lc = dirichlet.coproduct_mul(n)
    else:
        lc = dirichlet.coproduct_mul_unrenorm(n)
    print(_render_pairs(lc))
    return 0


def _cmd_antipode(args) -> int:
    fam, n = args.family, args.n
    if fam == "add":
        print(additive.antipode_add(n))
    elif fam == "mul":
        print(dirichlet.antipode_mul(n))
    else:
        print(dirichlet.antipode_unrenorm(n))
    return 0


def _cmd_convolve(args) -> int:
    f, g = _arith_fn(args.f), _arith_fn(args.g)
    for n in range(1, _count(args.upto, "--upto") + 1):
        print(f"{n} {dirichlet.dirichlet_convolve(f, g, n)}")
    return 0


def _cmd_series(args) -> int:
    s = series.named_series(args.name, args.upto)
    if args.csv:
        print(series.to_csv(s))
    else:
        for n in range(1, args.upto + 1):
            print(f"{n} {s[n]}")
    return 0


def _cmd_cocycle(args) -> int:
    phi = _arith_fn(args.phi)
    upto = _count(args.upto, "--upto")
    for n in range(1, upto + 1):
        for m in range(1, upto + 1):
            got = dirichlet.coboundary2_mul(phi, n, m)
            want = 1 if n == 1 and m == 1 else 0
            if got != want:
                print(f"deviates at ({n}, {m}): {got}")
                return 0
    print(f"1-cocycle through {upto}")
    return 0


def _cmd_branch(args) -> int:
    op, b, n = args.op, args.b, args.n
    if op == "sub":
        print(additive.branch_subtract(b, n))
    elif op == "div":
        print(dirichlet.branch_divide(b, n))
    else:
        print(_render_ints(dirichlet.branch_derive(b, n)))
    return 0


def _cmd_symfun(args) -> int:
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    if args.op == "circle":
        result = symfun.circle_product(lam, mu)
        basis = "m"
    else:
        result = symfun.schur_product_lr(lam, mu)
        basis = "s"
    if getattr(args, "json", False):
        items = sorted(result.terms.items(), key=lambda kv: (symfun.weight(kv[0]), kv[0]))
        payload = {
            "basis": basis,
            "terms": [{"partition": list(p), "coeff": str(c)} for p, c in items],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(symfun.render_sym(result, basis))
    return 0


def _cmd_normalorder(args) -> int:
    print(normal_order.render_op(normal_order.circle_power((1, 1), args.n)))
    return 0


def _cmd_stirling(args) -> int:
    if args.n < 1:
        raise ValueError("the Stirling row needs n >= 1")
    print(" ".join(str(normal_order.stirling2(args.n, k)) for k in range(1, args.n + 1)))
    return 0


def _cmd_witt(args) -> int:
    if args.op in ("ghost", "e2w") and len(args.vectors) != 1:
        raise ValueError(f"witt {args.op} needs exactly one vector")
    if args.op == "ghost":
        print(_vec_str(witt.ghost(_parse_vector(args.vectors[0]))))
    elif args.op in ("add", "mul"):
        if len(args.vectors) != 2:
            raise ValueError(f"witt {args.op} needs exactly two vectors")
        u, v = (_parse_vector(t) for t in args.vectors)
        fn = witt.witt_add if args.op == "add" else witt.witt_mul
        print(_vec_str(fn(u, v)))
    elif args.op == "polys":
        n = _count(args.vectors[0], "witt polys N") if args.vectors else 3
        F, G = witt.universal_polys(n)
        for i, f in enumerate(F, start=1):
            print(f"F{i} = {f.render()}")
        for i, g in enumerate(G, start=1):
            print(f"G{i} = {g.render()}")
    else:  # e2w
        print(_vec_str(witt.e_to_w(_parse_vector(args.vectors[0]))))
    return 0


def _cmd_appendix(args) -> int:
    ta = spectral.table_matrix_add(args.upto)
    tm = spectral.table_matrix_mul(args.upto)
    if args.what == "table":
        print("# additive table")
        print(spectral.matrix_to_csv(ta.rows, ta.row_labels, ta.col_labels), end="")
        print("# multiplicative table")
        print(spectral.matrix_to_csv(tm.rows, tm.row_labels, tm.col_labels), end="")
    else:
        print("# additive A")
        print(spectral.matrix_to_csv(spectral.gram_A(ta), ta.row_labels, None), end="")
        print("# additive B")
        print(spectral.matrix_to_csv(spectral.gram_B(ta), ta.col_labels, None), end="")
        print("# multiplicative A")
        print(spectral.matrix_to_csv(spectral.gram_A(tm), tm.row_labels, None), end="")
        print("# multiplicative B")
        print(spectral.matrix_to_csv(spectral.gram_B(tm), tm.col_labels, None), end="")
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance  # only selftest needs it; keeps the import of cli light

    return 0 if acceptance.run_all() else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="natalg",
        description="Exact convolution algebra on the natural numbers.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("coproduct", help="splittings of n under + or *")
    q.add_argument("family", choices=["add", "mul", "add-unrenorm", "mul-unrenorm"])
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_coproduct)

    q = sub.add_parser("antipode", help="antipode value at n")
    q.add_argument("family", choices=["add", "mul", "unrenorm"])
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_antipode)

    q = sub.add_parser("convolve", help="Dirichlet convolution table of two named functions")
    q.add_argument("--f", required=True)
    q.add_argument("--g", required=True)
    q.add_argument("--upto", type=int, required=True)
    q.set_defaults(func=_cmd_convolve)

    q = sub.add_parser("series", help="coefficients of a named Dirichlet series")
    q.add_argument("name")
    q.add_argument("--upto", type=int, required=True)
    q.add_argument("--csv", action="store_true")
    q.set_defaults(func=_cmd_series)

    q = sub.add_parser("cocycle", help="first deviation of the 2-coboundary of phi")
    q.add_argument("--phi", required=True)
    q.add_argument("--upto", type=int, required=True)
    q.set_defaults(func=_cmd_cocycle)

    q = sub.add_parser("branch", help="branching operators: truncated subtraction, division, derivation")
    q.add_argument("op", choices=["sub", "div", "derive"])
    q.add_argument("b", type=int)
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_branch)

    q = sub.add_parser("symfun", help="symmetric-function products")
    q.add_argument("op", choices=["circle", "lr"])
    q.add_argument("lam", metavar="LAMBDA", help="partition, e.g. 5,2,2")
    q.add_argument("mu", metavar="MU")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_symfun)

    q = sub.add_parser("normalorder", help="n-th circle power of :a†a:")
    q.add_argument("power", choices=["power"], metavar="power")
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_normalorder)

    q = sub.add_parser("stirling", help="Stirling row S(n,1..n)")
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_stirling)

    q = sub.add_parser("witt", help="ghost map, coordinate ring ops, universal polynomials")
    q.add_argument("op", choices=["ghost", "add", "mul", "polys", "e2w"])
    q.add_argument("vectors", nargs="*", help="comma-separated rational vectors (or N for polys)")
    q.set_defaults(func=_cmd_witt)

    q = sub.add_parser("appendix", help="table matrices and their Gram products as CSV")
    q.add_argument("what", choices=["gram", "table"])
    q.add_argument("--upto", type=int, required=True)
    q.set_defaults(func=_cmd_appendix)

    q = sub.add_parser("selftest", help="run the full acceptance suite")
    q.set_defaults(func=_cmd_selftest)

    return p


def main(argv=None) -> int:
    # built on the first call and reused: parsing leaves no state in the
    # parser (nargs="*" makes a fresh list per parse)
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
