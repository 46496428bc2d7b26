"""End-to-end checks of the command line: exact bytes, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import natalg
from natalg import additive, cli, dirichlet, spectral, symfun, witt
from natalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_antipode_values(capsys):
    assert run(capsys, "antipode", "mul", "6") == (0, "6\n", "")
    assert run(capsys, "antipode", "add", "5") == (0, "-5\n", "")
    assert run(capsys, "antipode", "unrenorm", "8") == (0, "-8\n", "")


def test_antipode_of_a_19_digit_prime_is_fast(capsys):
    # Miller-Rabin proves the prime; trial division would need ~10**9 steps
    t0 = time.perf_counter()
    result = run(capsys, "antipode", "mul", "1000000000000000003")
    assert time.perf_counter() - t0 < 1.0
    assert result == (0, "-1000000000000000003\n", "")


def test_square_of_a_19_digit_prime_factors(capsys):
    # (10**18 + 3)**2: a perfect-power test settles it, rho would need 10**9 steps
    n = (10**18 + 3) ** 2
    code, out, err = run(capsys, "coproduct", "mul", str(n))
    assert (code, err) == (0, "")
    assert out == f"(1, {n}) + ({10**18 + 3}, {10**18 + 3}) + ({n}, 1)\n"


def test_coproduct_rendering(capsys):
    assert run(capsys, "coproduct", "add", "2") == \
        (0, "(0, 2) + (1, 1) + (2, 0)\n", "")
    assert run(capsys, "coproduct", "add-unrenorm", "2") == \
        (0, "(0, 2) + 2*(1, 1) + (2, 0)\n", "")
    assert run(capsys, "coproduct", "mul-unrenorm", "4") == \
        (0, "(1, 4) + 2*(2, 2) + (4, 1)\n", "")


def test_convolution_table(capsys):
    code, out, err = run(capsys, "convolve", "--f", "moebius", "--g", "zeta",
                         "--upto", "5")
    assert code == 0 and err == ""
    assert out == "1 1\n2 0\n3 0\n4 0\n5 0\n"


def test_series_output(capsys):
    code, out, _ = run(capsys, "series", "zeta_squared", "--upto", "6")
    assert code == 0
    assert out == "1 1\n2 2\n3 2\n4 3\n5 2\n6 4\n"
    code, out, _ = run(capsys, "series", "moebius", "--upto", "2", "--csv")
    assert code == 0
    assert out == "1,1\n2,-1\n"
    code, _, err = run(capsys, "series", "nope", "--upto", "3")
    assert code == 1 and err.startswith("error:")


def test_cocycle_probe(capsys):
    assert run(capsys, "cocycle", "--phi", "zeta", "--upto", "3") == \
        (0, "deviates at (2, 2): -1\n", "")
    assert run(capsys, "cocycle", "--phi", "moebius", "--upto", "6") == \
        (0, "1-cocycle through 6\n", "")


@pytest.mark.parametrize("name", ["zeta", "moebius", "identity", "liouville", "unit", "id2", "id3"])
def test_cocycle_scans_the_triangle_like_the_full_grid(capsys, name):
    # the command scans m >= n only; a full row-major scan must agree
    phi = cli._arith_fn(name)
    for upto in (2, 30):
        grid = ((n, m) for n in range(1, upto + 1) for m in range(1, upto + 1))
        first = next((f"deviates at ({n}, {m}): {got}\n" for n, m in grid
                      if (got := dirichlet.coboundary2_mul(phi, n, m)) != int(n == m == 1)),
                     f"1-cocycle through {upto}\n")
        assert run(capsys, "cocycle", "--phi", name, "--upto", str(upto)) == (0, first, "")


def test_branch_operators(capsys):
    assert run(capsys, "branch", "sub", "3", "10") == (0, "7\n", "")
    assert run(capsys, "branch", "sub", "12", "5") == (0, "0\n", "")
    assert run(capsys, "branch", "div", "4", "12") == (0, "3\n", "")
    assert run(capsys, "branch", "div", "5", "12") == (0, "0\n", "")
    assert run(capsys, "branch", "derive", "2", "12") == (0, "2*6\n", "")
    assert run(capsys, "branch", "derive", "5", "12") == (0, "0\n", "")
    code, _, err = run(capsys, "branch", "derive", "4", "12")
    assert code == 1 and "error:" in err


def test_symfun_products(capsys):
    assert run(capsys, "symfun", "circle", "1", "1") == \
        (0, "2*m[1,1] + m[2]\n", "")
    code, out, _ = run(capsys, "symfun", "lr", "2,1", "2,1")
    assert code == 0
    assert out == ("s[2,2,1,1] + s[2,2,2] + s[3,1,1,1] + 2*s[3,2,1]"
                   " + s[3,3] + s[4,1,1] + s[4,2]\n")
    # the empty partition is the unit
    assert run(capsys, "symfun", "circle", "2,1", "-") == (0, "m[2,1]\n", "")


def test_symfun_json(capsys):
    code, out, _ = run(capsys, "symfun", "circle", "1", "1", "--json")
    assert code == 0
    assert json.loads(out) == {
        "basis": "m",
        "terms": [
            {"partition": [1, 1], "coeff": "2"},
            {"partition": [2], "coeff": "1"},
        ],
    }


def test_normal_order_powers(capsys):
    assert run(capsys, "normalorder", "power", "3") == \
        (0, ":a† a: + 3 :a†^2 a^2: + :a†^3 a^3:\n", "")


def test_stirling_rows(capsys):
    assert run(capsys, "stirling", "3") == (0, "1 3 1\n", "")
    assert run(capsys, "stirling", "5") == (0, "1 15 25 10 1\n", "")
    code, _, err = run(capsys, "stirling", "0")
    assert code == 1 and err.startswith("error:")


def test_witt_subcommands(capsys):
    assert run(capsys, "witt", "ghost", "1,1,1,1") == (0, "1,3,4,7\n", "")
    assert run(capsys, "witt", "add", "1,2", "3,4") == (0, "4,3\n", "")
    assert run(capsys, "witt", "mul", "1,2", "3,4") == (0, "3,38\n", "")
    assert run(capsys, "witt", "e2w", "1,-1,0") == (0, "1,1,1\n", "")
    code, out, _ = run(capsys, "witt", "polys", "2")
    assert code == 0
    assert out.splitlines()[:2] == ["F1 = v1 + w1", "F2 = v2 + w2 - v1*w1"]
    assert "G1 = v1*w1" in out


def test_counts_must_be_integers_of_at_least_one(capsys):
    for argv in (["witt", "polys", "x"], ["witt", "polys", "-3"], ["witt", "polys", "0"],
                 ["witt", "polys", "2.0"],
                 ["convolve", "--f", "zeta", "--g", "zeta", "--upto", "0"],
                 ["cocycle", "--phi", "moebius", "--upto", "0"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and "integer >= 1" in err, argv
    assert run(capsys, "witt", "polys", "1") == (0, "F1 = v1 + w1\nG1 = v1*w1\n", "")
    assert run(capsys, "cocycle", "--phi", "zeta", "--upto", "1") == \
        (0, "1-cocycle through 1\n", "")


def test_witt_argument_errors(capsys):
    for argv in (["witt", "ghost"], ["witt", "add", "1,2"],
                 ["witt", "ghost", "1,x"], ["witt", "add", "1,2", "3,4,5"],
                 ["witt", "polys", "3", "4"]):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:")


LIBRARY_CALLS = [
    (additive, "coproduct_add", ["coproduct", "add", "2"]),
    (dirichlet, "antipode_unrenorm", ["antipode", "unrenorm", "12"]),
    (dirichlet, "branch_derive", ["branch", "derive", "2", "12"]),
    (symfun, "schur_product_lr", ["symfun", "lr", "1", "1"]),
    (witt, "witt_mul", ["witt", "mul", "1,2", "3,4"]),
    (spectral, "table_matrix_mul", ["appendix", "table", "--upto", "2"]),
]


@pytest.mark.parametrize("module, name, argv", LIBRARY_CALLS, ids=[c[1] for c in LIBRARY_CALLS])
def test_dispatch_calls_the_current_module_attribute(capsys, monkeypatch, module, name, argv):
    # a wrapper installed on the library function after import (as the
    # bench's layer tracer does) must see the CLI's call
    original, calls = getattr(module, name), []

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    code, _, _ = run(capsys, *argv)
    assert code == 0 and calls


def test_importing_the_cli_stays_light():
    # dataclasses pulls in inspect; acceptance is imported by selftest only
    env = dict(os.environ, PYTHONPATH=str(Path(natalg.__file__).parents[1]))
    probe = ("import sys; before = set(sys.modules); import natalg.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "natalg.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "natalg.acceptance"})


def test_appendix_sections(capsys):
    code, out, _ = run(capsys, "appendix", "table", "--upto", "2")
    assert code == 0
    assert "# additive table" in out and "# multiplicative table" in out
    assert "row,0|0,1|0,0|1,2|0,1|1,0|2" in out
    code, out, _ = run(capsys, "appendix", "gram", "--upto", "2")
    assert code == 0
    for section in ("# additive A", "# additive B",
                    "# multiplicative A", "# multiplicative B"):
        assert section in out


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "coproduct", "mul", "0")
    assert code == 1
    assert err.startswith("error:")


def test_memory_error_is_one_error_line(capsys, monkeypatch):
    # stands in for a coproduct too large to hold, without allocating it;
    # str(MemoryError()) is empty, so the message must not come from it
    def exhausted(n):
        raise MemoryError

    monkeypatch.setitem(cli.COPRODUCTS, "add", exhausted)
    assert run(capsys, "coproduct", "add", "20000000") == \
        (1, "", "error: out of memory; try a smaller input\n")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    first = run(capsys, "series", "lambda", "--upto", "9")
    second = run(capsys, "series", "lambda", "--upto", "9")
    assert first == second


def test_over_budget_factorization_fails_fast(capsys):
    # two 16-digit primes: Pollard rho gives up instead of running ~15 s
    n = 3000000000000148000000000001369
    t0 = time.perf_counter()
    code, out, err = run(capsys, "antipode", "mul", str(n))
    assert time.perf_counter() - t0 < 5.0
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot factor {n}") and err.count("\n") == 1


# Every subcommand, options given and then omitted, defaults after explicit
# values (witt polys), usage errors (exit 2) followed by valid calls, and
# domain errors (exit 1).  selftest runs for seconds, so only its parser is
# exercised, through --help.
INTERLEAVED = [
    ["series", "moebius", "--upto", "5", "--csv"],
    ["series", "moebius", "--upto", "5"],
    ["symfun", "circle", "2,1", "1", "--json"],
    ["symfun", "circle", "2,1", "1"],
    ["symfun", "lr", "2,1", "1,1"],
    ["witt", "polys", "4"],
    ["witt", "polys"],
    ["witt", "add", "1,2", "3,4"],
    ["witt", "ghost", "1,2,3"],
    ["witt", "ghost", "-1,2"],
    ["witt", "e2w", "1,-1,0"],
    ["witt", "mul", "1,2", "3,4"],
    ["coproduct", "nope", "3"],
    ["coproduct", "mul-unrenorm", "12"],
    ["antipode", "mul", "0"],
    ["antipode", "unrenorm", "12"],
    ["convolve", "--f", "moebius", "--g", "zeta", "--upto", "6"],
    ["cocycle", "--phi", "zeta", "--upto", "3"],
    ["branch", "derive", "4", "12"],
    ["branch", "div", "4", "12"],
    ["normalorder", "power", "3"],
    ["stirling", "0"],
    ["stirling", "4"],
    ["appendix", "table", "--upto", "2"],
    ["appendix", "gram", "--upto", "2"],
    ["selftest", "--help"],
    ["series", "nope", "--upto", "3"],
    [],
    ["--help"],
]


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    # argparse wraps usage and help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(natalg.__file__).parents[1]))
    fresh = []
    for argv in INTERLEAVED:
        proc = subprocess.run([sys.executable, "-m", "natalg", *argv], env=env,
                              capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert {code for code, _, _ in fresh} == {0, 1, 2}

    def in_process(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for _ in range(2):
        assert [in_process(argv) for argv in INTERLEAVED] == fresh
