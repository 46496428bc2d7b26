"""Big-vector coordinate calculus: ghosts, universal laws, series bridges."""

import functools
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import natalg
from natalg import witt
from natalg.linear import LinComb
from natalg.witt import (
    MultiPoly,
    adams_op,
    e_to_w,
    ghost,
    ghost_inverse,
    ghost_sym,
    lambda_iter_identity,
    lambda_op,
    log_derivative_L,
    universal_polys,
    w_to_e,
    witt_add,
    witt_mul,
)

W = [MultiPoly.var(f"w{i}") for i in range(1, 6)]
V = [MultiPoly.var(f"v{i}") for i in range(1, 6)]
E = [MultiPoly.var(f"e{i}") for i in range(1, 6)]

ORACLES = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"


def _load_oracles():
    """The benchmark's independent routes (bench/oracles.py), imported by path."""
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


oracles = _load_oracles()

int_vectors = st.lists(st.integers(min_value=-9, max_value=9),
                       min_size=1, max_size=8)

fraction_vectors = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    min_size=1, max_size=6,
)


def test_multipoly_arithmetic():
    x = MultiPoly.var("x")
    p = (x + 1) ** 2
    assert p == x * x + 2 * x + 1
    assert p.eval({"x": 3}) == 16
    assert p.substitute({"x": x - 1}) == x * x
    assert (p - p) == 0
    assert not (p - p)
    assert p.variables() == {"x"}
    assert (x / 2).is_integral() is False
    with pytest.raises(TypeError):
        hash(p)
    with pytest.raises(ValueError):
        x ** -1


def test_multipoly_is_a_linear_combination_closed_under_its_operators():
    p, q = W[0] * V[1] - 3, W[1] + Fraction(1, 2)
    assert isinstance(p, LinComb)
    results = [-p, p.scale(2), p + 1, 1 - p, 2 * p, p * q, p / 2, p ** 2, p - q, p + q]
    assert all(type(r) is MultiPoly for r in results)
    assert p + 1 == W[0] * V[1] - 2 and 1 - p == 4 - W[0] * V[1]
    assert (p / 2).terms == {(("v2", 1), ("w1", 1)): Fraction(1, 2), (): Fraction(-3, 2)}
    assert type((2 * p).terms[()]) is int
    with pytest.raises(TypeError):
        hash(p)


def test_render_orders_by_degree_then_index():
    f2 = W[1] + V[1] - W[0] * V[0]
    assert f2.render() == "v2 + w2 - v1*w1"
    assert MultiPoly().render() == "0"
    assert (W[0] * 2 - 3).render() == "-3 + 2*w1"


def test_ghost_components():
    assert ghost([1, 1, 1, 1]) == [1, 3, 4, 7]
    assert ghost([2]) == [2]
    # r_n only involves coordinates at divisor indices
    assert ghost_sym(3, "v")[2].variables() == {"v1", "v3"}
    assert ghost_sym(4)[3] == W[0] ** 4 + 2 * W[1] ** 2 + 4 * W[3]


@given(fraction_vectors)
def test_ghost_inverse_roundtrip(w):
    assert ghost_inverse(ghost(w)) == w
    assert ghost(ghost_inverse(w)) == w


def test_ghost_map_and_inverse_on_symbolic_coordinates():
    # the same ghost map runs on polynomials: no characteristic is assumed
    assert ghost(W) == ghost_sym(5)
    assert ghost_inverse(ghost(W)) == W
    assert ghost(ghost_inverse(W)) == W
    assert ghost_inverse([2 * W[0], W[1]])[1] == (W[1] - 4 * W[0] ** 2) / 2
    # the ring operations on symbolic coordinates are the universal polynomials
    F, G = universal_polys(5)
    assert witt_add(W, V) == F
    assert witt_mul(W, V) == G


@given(int_vectors, int_vectors)
def test_sum_and_product_laws_are_commutative_and_integral(u, v):
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    s, p = witt_add(u, v), witt_mul(u, v)
    assert s == witt_add(v, u)
    assert p == witt_mul(v, u)
    # integer coordinates stay integer
    assert all(c.denominator == 1 for c in s)
    assert all(c.denominator == 1 for c in p)


def test_identity_vectors():
    u = [3, -1, 4, 1, -5]
    assert witt_add(u, [0] * 5) == u
    assert witt_mul(u, [1, 0, 0, 0, 0]) == u


def test_vectors_must_share_length():
    with pytest.raises(ValueError):
        witt_add([1, 2], [1, 2, 3])


def test_the_oracles_load_no_natalg_module():
    probe = ("import importlib.util, json, sys\n"
             f"spec = importlib.util.spec_from_file_location('oracles', {str(ORACLES)!r})\n"
             "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
             "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'natalg']))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(natalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == []


def _random_vector(rng: random.Random, n: int, fractions: bool) -> list:
    if not fractions:
        return [rng.randint(-9, 9) for _ in range(n)]
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.5
            else rng.randint(-6, 6) for _ in range(n)]


def test_ring_operations_match_the_independent_oracle():
    rng = random.Random(47)
    for trial in range(120):
        n, fractions = rng.randint(1, 8), trial % 2 == 1
        u, v = _random_vector(rng, n, fractions), _random_vector(rng, n, fractions)
        s, p = witt_add(u, v), witt_mul(u, v)
        assert s == oracles.witt_op(u, v, "add")
        assert p == oracles.witt_op(u, v, "mul")
        assert all(type(c) is Fraction for c in s + p)


def test_w_to_e_matches_the_independent_product_series():
    rng = random.Random(48)
    for trial in range(120):
        w = _random_vector(rng, rng.randint(0, 8), trial % 2 == 1)
        e = w_to_e(w)
        assert e == oracles.product_series(w)
        assert all(type(c) is Fraction for c in e)


def test_universal_polynomials():
    F, G = universal_polys(4)
    assert F[0] == W[0] + V[0]
    assert F[1] == W[1] + V[1] - W[0] * V[0]
    assert G[0] == W[0] * V[0]
    assert G[1] == 2 * W[1] * V[1] + V[0] ** 2 * W[1] + W[0] ** 2 * V[1]
    for poly in F + G:
        assert poly.is_integral()
    with pytest.raises(ValueError):
        universal_polys(9)


def rendered(pair):
    F, G = pair
    return repr([p.render() for p in F + G])


@functools.cache
def fresh_renderings():
    """rendered(universal_polys(n)) for n = 1..8, from a new process."""
    script = ("from natalg.witt import universal_polys\n"
              "for n in range(1, 9):\n"
              "    F, G = universal_polys(n)\n"
              "    print(repr([p.render() for p in F + G]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(natalg.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout.splitlines()


def test_universal_polys_memo_matches_a_fresh_process(monkeypatch):
    fresh = fresh_renderings()
    # an empty memo here: 8 first, then 1..8 are all read from what 8 solved
    monkeypatch.setattr(witt, "_F", [])
    monkeypatch.setattr(witt, "_G", [])
    assert rendered(universal_polys(8)) == fresh[7]
    assert [rendered(universal_polys(n)) for n in range(1, 9)] == fresh


def test_a_failed_check_keeps_the_polynomial_out_of_the_memo(monkeypatch):
    F, G = universal_polys(2)
    monkeypatch.setattr(witt, "_F", list(F))
    monkeypatch.setattr(witt, "_G", list(G))
    integral = MultiPoly.is_integral
    with monkeypatch.context() as patch:
        # index 3 is the first to use w3
        patch.setattr(MultiPoly, "is_integral", lambda p: "w3" not in p.variables() and integral(p))
        with pytest.raises(ArithmeticError, match="F3 has a non-integer coefficient"):
            universal_polys(5)
        assert len(witt._F) == len(witt._G) == 2
    assert [rendered(universal_polys(n)) for n in range(1, 9)] == fresh_renderings()


def test_universal_polys_returns_new_lists():
    F, G = universal_polys(4)
    want = [f.render() for f in F], [g.render() for g in G]
    F.append(MultiPoly.var("x"))
    F[0] = MultiPoly()
    G.clear()
    F, G = universal_polys(4)
    assert ([f.render() for f in F], [g.render() for g in G]) == want
    assert universal_polys(5)[0][:4] == F
    assert universal_polys(0) == ([], [])
    assert universal_polys(-1) == ([], [])


@settings(max_examples=25)
@given(st.lists(st.integers(-4, 4), min_size=5, max_size=5),
       st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_universal_polynomials_compute_the_laws(u, v):
    F, G = universal_polys(5)
    env = {f"w{i + 1}": u[i] for i in range(5)}
    env.update({f"v{i + 1}": v[i] for i in range(5)})
    assert [f.eval(env) for f in F] == witt_add(u, v)
    assert [g.eval(env) for g in G] == witt_mul(u, v)


def test_lambda_op_extends_binomials():
    assert lambda_op(2, -1) == 1
    assert lambda_op(3, -2) == -4
    assert lambda_op(0, -7) == 1
    assert lambda_op(5, 3) == 0
    with pytest.raises(ValueError):
        lambda_op(-1, 4)


@given(st.integers(0, 8), st.integers(0, 30))
def test_lambda_op_matches_comb_on_naturals(n, m):
    assert lambda_op(n, m) == math.comb(m, n)


@given(st.integers(-30, 30))
def test_second_operation_composition(x):
    assert lambda_iter_identity(x)


@given(st.integers(-12, 12), st.integers(-12, 12))
def test_second_operation_product_rule(x, y):
    lhs = lambda_op(2, x * y)
    rhs = (x * x * lambda_op(2, y) + y * y * lambda_op(2, x)
           - 2 * lambda_op(2, x) * lambda_op(2, y))
    assert lhs == rhs


@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(0, 6))
def test_lambda_vandermonde(x, y, n):
    assert lambda_op(n, x + y) == sum(
        lambda_op(r, x) * lambda_op(n - r, y) for r in range(n + 1)
    )


def test_adams_subsampling():
    assert adams_op(2, [1, 2, 3, 4, 5, 6]) == [2, 4, 6]
    assert adams_op(1, [7, 8, 9]) == [7, 8, 9]
    seq = list(range(1, 37))
    assert adams_op(2, adams_op(3, seq)) == adams_op(6, seq)
    # a constant sequence is fixed by every stride up to length loss
    assert adams_op(3, [5] * 9) == [5] * 3
    with pytest.raises(ValueError):
        adams_op(0, [1, 2])


def test_w_to_e_symbolic_rows():
    e = w_to_e(W)
    assert e[0] == W[0]
    assert e[1] == -W[1]
    assert e[2] == W[2] - W[0] * W[1]
    assert e[3] == -W[3] + W[0] * W[2]
    assert e[4] == W[4] - W[0] * W[3] - W[1] * W[2]


def test_e_to_w_symbolic_rows():
    w = e_to_w(E)
    assert w[0] == E[0]
    assert w[1] == -E[1]
    assert w[2] == E[2] - E[0] * E[1]
    assert w[3] == -E[3] + E[0] * E[2] - E[0] ** 2 * E[1]
    assert w[4] == (E[4] - E[0] * E[3] - E[1] * E[2]
                    + E[0] * E[1] ** 2 + E[0] ** 2 * E[2] - E[0] ** 3 * E[1])


@given(int_vectors)
def test_series_conversion_roundtrips(v):
    assert e_to_w(w_to_e(v)) == v
    assert w_to_e(e_to_w(v)) == v


def test_log_derivative():
    assert log_derivative_L([1, 1, 0, 0, 0]) == [1, -1, 1, -1]
    with pytest.raises(ValueError):
        log_derivative_L([2, 1])
    with pytest.raises(ValueError):
        log_derivative_L([])


def test_float_inputs_give_exact_values():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    cases = [(w_to_e([0.5, 1]), [half, -1]),
             (e_to_w([0.5, 0.25]), [half, -quarter]),
             (log_derivative_L([1, 0.5, 0]), [half, -quarter]),
             (ghost([0.5, 1]), [half, Fraction(9, 4)])]
    for got, want in cases:
        assert got == want
        assert all(type(c) in (int, Fraction) for c in got)


def test_log_derivative_recovers_ghosts():
    # f'/f of the coordinate product series gives the ghost components
    # with alternating signs
    series = [MultiPoly.const(1)] + w_to_e(W)
    got = log_derivative_L(series)
    for n, r in enumerate(ghost_sym(5), start=1):
        assert got[n - 1] == r * ((-1) ** (n + 1))
