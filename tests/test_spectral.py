"""Table matrices for the two recombinations, Gram products, exact spectra."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from natalg import spectral
from natalg.nat import divisors
from natalg.spectral import (
    TableMatrix,
    _charpoly_dense,
    charpoly,
    gram_A,
    gram_B,
    matrix_to_csv,
    nonzero_spectra_match,
    operator_identity_add,
    operator_identity_mul,
    strip_zero_roots,
    table_matrix_add,
    table_matrix_mul,
)


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def brute_charpoly(m):
    """Leibniz determinant of xI - M, kept as an independent oracle."""
    n = len(m)
    total = [Fraction(0)] * (n + 1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = [Fraction(1) if inversions % 2 == 0 else Fraction(-1)]
        for i in range(n):
            entry = [-Fraction(m[i][perm[i]])]
            if perm[i] == i:
                entry.append(Fraction(1))  # the x on the diagonal
            prod = poly_mul(prod, entry)
        for k, c in enumerate(prod):
            total[k] += c
    return total


square_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


@settings(max_examples=80)
@given(square_matrices)
def test_charpoly_matches_leibniz_expansion(m):
    assert charpoly(m) == brute_charpoly(m)


def test_charpoly_known_factors():
    assert charpoly([[2, 0], [0, 3]]) == [6, -5, 1]
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert charpoly(eye3) == [-1, 3, -3, 1]
    with pytest.raises(ValueError):
        charpoly([[1, 2, 3], [4, 5, 6]])


def assert_fractions(p):
    assert all(type(c) is Fraction for c in p)


def test_charpoly_with_a_zero_subdiagonal_in_hessenberg_form():
    # connected matrices whose Hessenberg form has a zero subdiagonal entry,
    # where the leading-submatrix recurrence stops its inner loop
    cases = [[[1] * n for _ in range(n)] for n in (3, 4, 5)]
    cases += [[[0, 0, 0, 1, 2], [1, 0, 0, 0, 2], [0, 0, 1, 0, 2], [1, 1, 1, 0, 1],
               [0, 0, 1, 0, 1]],
              [[1, 1, 1, 1, 0], [1, 1, 0, 1, 1], [0, 1, 1, 1, 1], [1, 0, 0, 1, 0],
               [1, 2, 0, 1, 2]],
              [[0, 1, 1, 0], [1, 0, 0, 2], [1, 0, 0, 2], [0, 2, 2, 1]],
              [[2, 1, 1, 1, 0], [1, 2, 1, 1, 0], [1, 1, 2, 1, 0],
               [1, 1, 1, 2, 1], [0, 0, 0, 1, 1]]]
    for m in cases:
        assert len(spectral._components(m)) == 1
        got = charpoly(m)
        assert_fractions(got)
        assert got == brute_charpoly(m)


def test_integer_matrices_with_whole_pivot_quotients_stay_int():
    for m in ([[2, 1], [1, 2]], [[1] * 4 for _ in range(4)],
              [[0, 1, 2], [1, 0, 3], [2, 4, 1]], gram_B(table_matrix_mul(3))):
        got = _charpoly_dense(m)
        assert all(type(c) is int for c in got)
        assert got == brute_charpoly(m)
        assert_fractions(charpoly(m))


blocks_and_order = st.lists(
    st.integers(1, 3).flatmap(lambda b: st.lists(
        st.lists(st.integers(-4, 4), min_size=b, max_size=b), min_size=b, max_size=b)),
    min_size=0, max_size=4,
).flatmap(lambda blocks: st.tuples(
    st.just(blocks), st.permutations(range(sum(len(b) for b in blocks)))))


@settings(max_examples=80)
@given(blocks_and_order)
def test_charpoly_of_permuted_block_diagonal_matrices(case):
    blocks, order = case
    n = len(order)
    m = [[0] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                m[order[start + i]][order[start + j]] = x
        start += len(b)
    got = charpoly(m)
    assert_fractions(got)
    assert got == _charpoly_dense(m)
    want = [Fraction(1)]
    for b in blocks:
        want = poly_mul(want, brute_charpoly(b))
    assert got == want


def test_charpoly_of_random_sparse_matrices():
    rng = random.Random(33)
    entries = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    for _ in range(400):
        n = rng.randint(0, 9)
        density = rng.choice([0.05, 0.15, 0.3, 0.6])
        m = [[rng.choice(entries) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        got = charpoly(m)
        assert_fractions(got)
        assert got == _charpoly_dense(m)
    assert charpoly([]) == [1]
    assert_fractions(charpoly([]))


def test_charpoly_runs_dense_only_on_the_blocks_of_gram_b(monkeypatch):
    # a count, not a time: the dense path sees one block per recombination
    # value, d(n) rows for the product table and n+1 for the sum table
    sizes = []

    def recording(matrix):
        sizes.append(len(matrix))
        return _charpoly_dense(matrix)

    monkeypatch.setattr(spectral, "_charpoly_dense", recording)
    charpoly(gram_B(table_matrix_mul(100)))
    assert sorted(sizes) == sorted(len(divisors(n)) for n in range(1, 101))
    assert len(sizes) == 100 and max(sizes) == 12
    sizes.clear()
    charpoly(gram_B(table_matrix_add(24)))
    assert sorted(sizes) == list(range(1, 26))


signed_tables = st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=1, max_size=4))


@settings(max_examples=80)
@given(signed_tables)
def test_gram_products_of_signed_integer_tables(m):
    rows, cols = len(m), len(m[0])
    t = TableMatrix(tuple(map(tuple, m)), tuple(range(rows)),
                    tuple((k, 0) for k in range(cols)))
    mmt = [[sum(m[i][k] * m[j][k] for k in range(cols)) for j in range(rows)]
           for i in range(rows)]
    mtm = [[sum(m[i][a] * m[i][b] for i in range(rows)) for b in range(cols)]
           for a in range(cols)]
    assert gram_A(t) == mmt
    assert gram_B(t) == mtm
    assert all(type(x) is int for g in (gram_A(t), gram_B(t)) for row in g for x in row)


def test_strip_zero_roots():
    assert strip_zero_roots([0, 0, 3, 1]) == [3, 1]
    assert strip_zero_roots([5, 1]) == [5, 1]
    assert strip_zero_roots([0]) == [0]


def test_additive_table_layout():
    t = table_matrix_add(3)
    assert t.row_labels == (0, 1, 2, 3)
    assert t.col_labels == (
        (0, 0),
        (1, 0), (0, 1),
        (2, 0), (1, 1), (0, 2),
        (3, 0), (2, 1), (1, 2), (0, 3),
    )
    row2 = t.rows[2]
    hits = [t.col_labels[k] for k, x in enumerate(row2) if x]
    assert hits == [(2, 0), (1, 1), (0, 2)]
    with pytest.raises(ValueError):
        table_matrix_add(0)


def test_multiplicative_table_layout():
    t = table_matrix_mul(4)
    assert t.row_labels == (1, 2, 3, 4)
    assert t.col_labels == (
        (1, 1),
        (2, 1), (1, 2),
        (3, 1), (1, 3),
        (4, 1), (2, 2), (1, 4),
    )
    row4 = t.rows[3]
    hits = [t.col_labels[k] for k, x in enumerate(row4) if x]
    assert hits == [(4, 1), (2, 2), (1, 4)]


def test_first_gram_product_is_diagonal():
    ta = table_matrix_add(5)
    A = gram_A(ta)
    for i in range(6):
        for j in range(6):
            assert A[i][j] == ((i + 1) if i == j else 0)
    tm = table_matrix_mul(6)
    M = gram_A(tm)
    for i, n in enumerate(tm.row_labels):
        assert M[i][i] == len(divisors(n))
        assert all(M[i][j] == 0 for j in range(len(M)) if j != i)


def test_second_gram_product_has_all_ones_blocks():
    ta = table_matrix_add(3)
    B = gram_B(ta)
    for a, la in enumerate(ta.col_labels):
        for b, lb in enumerate(ta.col_labels):
            assert B[a][b] == (1 if sum(la) == sum(lb) else 0)
    tm = table_matrix_mul(5)
    B = gram_B(tm)
    for a, la in enumerate(tm.col_labels):
        for b, lb in enumerate(tm.col_labels):
            assert B[a][b] == (1 if la[0] * la[1] == lb[0] * lb[1] else 0)


def test_operator_identities():
    for n in range(21):
        assert operator_identity_add(n) == n * (n + 1)
    for n in range(1, 31):
        assert operator_identity_mul(n) == n * len(divisors(n))


def test_gram_pairs_share_their_nonzero_spectrum():
    for t in (table_matrix_add(4), table_matrix_mul(6)):
        assert nonzero_spectra_match(gram_A(t), gram_B(t))


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=2, max_size=2))
def test_products_in_both_orders_share_nonzero_spectra(m):
    # m m^T and m^T m differ in size but not in nonzero eigenvalues
    rows, cols = len(m), len(m[0])
    A = [[sum(m[i][k] * m[j][k] for k in range(cols)) for j in range(rows)]
         for i in range(rows)]
    B = [[sum(m[i][a] * m[i][b] for i in range(rows)) for b in range(cols)]
         for a in range(cols)]
    assert nonzero_spectra_match(A, B)


def test_csv_rendering():
    got = matrix_to_csv([[1, 0], [0, 1]], row_labels=(1, 2),
                        col_labels=((1, 1), (2, 1)))
    assert got == "row,1|1,2|1\n1,1,0\n2,0,1\n"
    assert matrix_to_csv([[1, 0], [0, 1]]) == "1,0\n0,1\n"
