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


ARITH_FNS = {f.name: f for f in (dirichlet.zeta, dirichlet.moebius_fn, dirichlet.identity_fn,
                                  dirichlet.liouville, dirichlet.unit_fn)}


def _arith_fn(name: str) -> dirichlet.ArithFn:
    if name in ARITH_FNS:
        return ARITH_FNS[name]
    if name.startswith("id") and name[2:].isdigit():
        return dirichlet.id_power(int(name[2:]))
    raise ValueError(f"unknown arithmetic function {name!r}; expected {', '.join(ARITH_FNS)}, or idK")


def _render(lc: LinComb) -> str:
    return " + ".join(str(k) if c == 1 else f"{c}*{k}" for k, c in sorted(lc.terms.items())) or "0"


# ---------------------------------------------------------------------------
# families and ops: each is declared once, here, and both argparse's choices
# and the dispatch read it.  An entry looks its library function up when
# called, so a wrapper installed later on the module attribute still sees it.

COPRODUCTS = {
    "add": lambda n: additive.coproduct_add(n),
    "mul": lambda n: dirichlet.coproduct_mul(n),
    "add-unrenorm": lambda n: additive.coproduct_add_unrenorm(n),
    "mul-unrenorm": lambda n: dirichlet.coproduct_mul_unrenorm(n),
}

ANTIPODES = {
    "add": lambda n: additive.antipode_add(n),
    "mul": lambda n: dirichlet.antipode_mul(n),
    "unrenorm": lambda n: dirichlet.antipode_unrenorm(n),
}

BRANCHES = {
    "sub": lambda b, n: additive.branch_subtract(b, n),
    "div": lambda b, n: dirichlet.branch_divide(b, n),
    "derive": lambda b, n: _render(dirichlet.branch_derive(b, n)),
}

# op -> (the basis its product is written in, the product)
SYMFUN_PRODUCTS = {
    "circle": ("m", lambda lam, mu: symfun.circle_product(lam, mu)),
    "lr": ("s", lambda lam, mu: symfun.schur_product_lr(lam, mu)),
}


def _on_vectors(op, *texts: str) -> str:
    return ",".join(str(x) for x in op(*map(_parse_vector, texts)))


def _witt_polys(n: str | int = 3) -> str:
    F, G = witt.universal_polys(_count(n, "witt polys N"))
    return "\n".join([f"F{i} = {f.render()}" for i, f in enumerate(F, start=1)]
                     + [f"G{i} = {g.render()}" for i, g in enumerate(G, start=1)])


# op -> (the argument counts it accepts, how its arity error says so, the op)
WITT_OPS = {
    "ghost": ((1,), "exactly one vector", lambda v: _on_vectors(witt.ghost, v)),
    "add": ((2,), "exactly two vectors", lambda u, v: _on_vectors(witt.witt_add, u, v)),
    "mul": ((2,), "exactly two vectors", lambda u, v: _on_vectors(witt.witt_mul, u, v)),
    "polys": ((0, 1), "at most one count", _witt_polys),
    "e2w": ((1,), "exactly one vector", lambda v: _on_vectors(witt.e_to_w, v)),
}


# ---------------------------------------------------------------------------
# subcommand bodies (the one-line ones are lambdas in the parser): each
# prints, and only selftest returns an exit code


def _cmd_witt(args) -> None:
    counts, arity, op = WITT_OPS[args.op]
    if len(args.vectors) not in counts:
        raise ValueError(f"witt {args.op} needs {arity}")
    print(op(*args.vectors))


def _cmd_convolve(args) -> None:
    f, g = _arith_fn(args.f), _arith_fn(args.g)
    upto = _count(args.upto, "--upto")
    h = series.series_mul(series.DirichletSeries(f.values(upto)), series.DirichletSeries(g.values(upto)))
    print("\n".join(f"{n} {c}" for n, c in enumerate(h.coeffs, 1)))


def _cmd_series(args) -> None:
    s = series.named_series(args.name, args.upto)
    sep = "," if args.csv else " "
    print("\n".join(f"{n}{sep}{c}" for n, c in enumerate(s.coeffs, 1)))


def _cmd_cocycle(args) -> None:
    phi = _arith_fn(args.phi)
    upto = _count(args.upto, "--upto")
    for n in range(1, upto + 1):
        for m in range(n, upto + 1):  # d2 phi is symmetric: the first deviation has n <= m
            got = dirichlet.coboundary2_mul(phi, n, m)
            want = 1 if n == 1 and m == 1 else 0
            if got != want:
                print(f"deviates at ({n}, {m}): {got}")
                return
    print(f"1-cocycle through {upto}")


def _cmd_symfun(args) -> None:
    basis, product = SYMFUN_PRODUCTS[args.op]
    result = product(_parse_partition(args.lam), _parse_partition(args.mu))
    if args.json:
        items = sorted(result.terms.items(), key=lambda kv: (symfun.weight(kv[0]), kv[0]))
        terms = [{"partition": list(p), "coeff": str(c)} for p, c in items]
        print(json.dumps({"basis": basis, "terms": terms}, sort_keys=True))
    else:
        print(symfun.render_sym(result, basis))


def _cmd_stirling(args) -> None:
    if args.n < 1:
        raise ValueError("the Stirling row needs n >= 1")
    print(" ".join(str(normal_order.stirling2(args.n, k)) for k in range(1, args.n + 1)))


def _cmd_appendix(args) -> None:
    for side, table_matrix in (("additive", spectral.table_matrix_add),
                               ("multiplicative", spectral.table_matrix_mul)):
        t = table_matrix(args.upto)
        if args.what == "table":
            sections = [("table", t.rows, t.row_labels, t.col_labels)]
        else:
            sections = [("A", spectral.gram_A(t), t.row_labels, None),
                        ("B", spectral.gram_B(t), t.col_labels, None)]
        for name, matrix, labels, cols in sections:
            print(f"# {side} {name}")
            print(spectral.matrix_to_csv(matrix, labels, cols), end="")


def _cmd_selftest(args) -> int:
    from . import acceptance  # only selftest needs it; keeps the import of cli light

    return 0 if acceptance.run_all() else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="natalg",
                                description="Exact convolution algebra on the natural numbers.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        q = sub.add_parser(name, help=help)
        q.set_defaults(func=func)
        return q

    q = command("coproduct", lambda args: print(_render(COPRODUCTS[args.family](args.n))),
                "splittings of n under + or *")
    q.add_argument("family", choices=COPRODUCTS)
    q.add_argument("n", type=int)

    q = command("antipode", lambda args: print(ANTIPODES[args.family](args.n)),
                "antipode value at n")
    q.add_argument("family", choices=ANTIPODES)
    q.add_argument("n", type=int)

    q = command("convolve", _cmd_convolve, "Dirichlet convolution table of two named functions")
    q.add_argument("--f", required=True)
    q.add_argument("--g", required=True)
    q.add_argument("--upto", type=int, required=True)

    q = command("series", _cmd_series, "coefficients of a named Dirichlet series")
    q.add_argument("name")
    q.add_argument("--upto", type=int, required=True)
    q.add_argument("--csv", action="store_true")

    q = command("cocycle", _cmd_cocycle, "first deviation of the 2-coboundary of phi")
    q.add_argument("--phi", required=True)
    q.add_argument("--upto", type=int, required=True)

    q = command("branch", lambda args: print(BRANCHES[args.op](args.b, args.n)),
                "branching operators: truncated subtraction, division, derivation")
    q.add_argument("op", choices=BRANCHES)
    q.add_argument("b", type=int)
    q.add_argument("n", type=int)

    q = command("symfun", _cmd_symfun, "symmetric-function products")
    q.add_argument("op", choices=SYMFUN_PRODUCTS)
    q.add_argument("lam", metavar="LAMBDA", help="partition, e.g. 5,2,2")
    q.add_argument("mu", metavar="MU")
    q.add_argument("--json", action="store_true")

    q = command("normalorder",
                lambda args: print(normal_order.render_op(normal_order.circle_power((1, 1), args.n))),
                "n-th circle power of :a†a:")
    q.add_argument("power", choices=["power"], metavar="power")
    q.add_argument("n", type=int)

    q = command("stirling", _cmd_stirling, "Stirling row S(n,1..n)")
    q.add_argument("n", type=int)

    q = command("witt", _cmd_witt, "ghost map, coordinate ring ops, universal polynomials")
    q.add_argument("op", choices=WITT_OPS)
    q.add_argument("vectors", nargs="*", help="comma-separated rational vectors (or N for polys)")

    q = command("appendix", _cmd_appendix, "table matrices and their Gram products as CSV")
    q.add_argument("what", choices=["gram", "table"])
    q.add_argument("--upto", type=int, required=True)

    command("selftest", _cmd_selftest, "run the full acceptance suite")
    return p


def main(argv=None) -> int:
    # built on the first call and reused: parsing leaves no state in the
    # parser (nargs="*" makes a fresh list per parse)
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # str(MemoryError()) is empty
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
