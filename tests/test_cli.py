"""End-to-end checks of the command line: exact bytes, exit codes."""

import json
import time

import pytest

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


def test_witt_argument_errors(capsys):
    for argv in (["witt", "ghost"], ["witt", "add", "1,2"],
                 ["witt", "ghost", "1,x"], ["witt", "add", "1,2", "3,4,5"]):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:")


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
