"""Truncated multiplication-table matrices for addition and for
multiplication on the nonnegative integers, their two Gram products, the
summed operator identities, and exact characteristic polynomials used to
compare nonzero spectra.

Both Gram products are read from the nonzero entries of the table, and a
charpoly is taken per connected block of its matrix: for a table matrix
every column has one 1, so M^T M is all-ones blocks, one per row label,
and M M^T is diagonal.

No floats anywhere: eigen-data is handled through exact charpolys.  They
are computed int-first (linear.normalize, linear.exact_div), so an integer
matrix runs in int until a pivot quotient is not whole, and charpoly hands
back Fraction coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .additive import coproduct_add
from .dirichlet import coproduct_mul
from .linear import Scalar, exact_div, normalize
from .nat import divisors

__all__ = [
    "TableMatrix",
    "table_matrix_add",
    "table_matrix_mul",
    "gram_A",
    "gram_B",
    "operator_identity_add",
    "operator_identity_mul",
    "charpoly",
    "strip_zero_roots",
    "nonzero_spectra_match",
    "matrix_to_csv",
]


class TableMatrix(NamedTuple):
    rows: tuple[tuple[int, ...], ...]
    row_labels: tuple[int, ...]
    col_labels: tuple[tuple[int, int], ...]


def table_matrix_add(N: int) -> TableMatrix:
    """Rows 0..N; one column per pair (i, j) with i+j <= N, grouped by the
    sum and ordered by descending first coordinate inside a group."""
    if N < 1:
        raise ValueError("need N >= 1")
    cols = [(i, s - i) for s in range(N + 1) for i in range(s, -1, -1)]
    rows = tuple(
        tuple(1 if i + j == n else 0 for (i, j) in cols) for n in range(N + 1)
    )
    return TableMatrix(rows, tuple(range(N + 1)), tuple(cols))


def table_matrix_mul(N: int) -> TableMatrix:
    """Rows 1..N; one column per divisor pair (d, n/d) with n <= N, grouped
    by the product and ordered by descending first coordinate."""
    if N < 1:
        raise ValueError("need N >= 1")
    cols = [(d, n // d) for n in range(1, N + 1) for d in reversed(divisors(n))]
    rows = tuple(
        tuple(1 if a * b == n else 0 for (a, b) in cols) for n in range(1, N + 1)
    )
    return TableMatrix(rows, tuple(range(1, N + 1)), tuple(cols))


def _outer_sum(vectors, size: int) -> list[list[int]]:
    """Sum of v v^T over the vectors, each read only at its nonzero entries."""
    out = [[0] * size for _ in range(size)]
    for v in vectors:
        nz = [(k, x) for k, x in enumerate(v) if x]
        for a, xa in nz:
            row = out[a]
            for b, xb in nz:
                row[b] += xa * xb
    return out


def gram_A(table: TableMatrix) -> list[list[int]]:
    """m times its transpose, summed over the columns; diagonal counts the
    splittings of each row label (n+1 additively, d(n) multiplicatively)."""
    return _outer_sum(zip(*table.rows), len(table.rows))


def gram_B(table: TableMatrix) -> list[list[int]]:
    """Transpose times m, summed over the rows' nonzero entries; all-ones
    blocks indexed by recombination value."""
    return _outer_sum(table.rows, len(table.col_labels))


def operator_identity_add(n: int) -> int:
    """Recombine each splitting of n by + and total up: equals n(n+1)."""
    total = sum(c * (i + j) for (i, j), c in coproduct_add(n))
    assert total == n * (n + 1)
    return int(total)


def operator_identity_mul(n: int) -> int:
    """Recombine each divisor splitting of n by * and total up: n*d(n)."""
    total = sum(c * (d * e) for (d, e), c in coproduct_mul(n))
    assert total == n * len(divisors(n))
    return int(total)


# ---------------------------------------------------------------------------
# exact characteristic polynomials

Poly = list[Scalar]  # ascending coefficients; charpoly returns Fractions


def _poly_sub_scaled(p: Poly, q: Poly, c: Scalar) -> Poly:
    out = list(p) + [0] * (len(q) - len(p))
    for i, qc in enumerate(q):
        out[i] -= c * qc
    return out


def _components(rows: list[list]) -> list[list[int]]:
    """Index sets of the connected components of the symmetric nonzero
    pattern of a square matrix, each in ascending order."""
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x and i != j:
                parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(len(rows)):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def charpoly(matrix) -> list[Fraction]:
    """Fraction coefficients (ascending) of det(xI - M), computed exactly per
    connected block of M's nonzero pattern (a block-diagonal matrix up to a
    permutation has the product of its blocks' charpolys) by reducing each
    block to Hessenberg form with similarity row/column operations and
    then running the leading-submatrix recurrence."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    p: Poly = [1]
    for idx in _components(rows):
        q = _charpoly_dense([[rows[i][j] for j in idx] for i in idx])
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        p = out
    return [Fraction(c) for c in p]


def _charpoly_dense(matrix) -> Poly:
    """det(xI - M) of a square matrix by Hessenberg reduction, int-first."""
    n = len(matrix)
    H = [[normalize(x) for x in row] for row in matrix]

    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for row in H:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        for i in range(j + 2, n):
            if not H[i][j]:
                continue
            f = exact_div(H[i][j], H[j + 1][j])
            for k in range(j, n):
                H[i][k] -= f * H[j + 1][k]
            for k in range(n):
                H[k][j + 1] += f * H[k][i]

    # p[m] = charpoly of the leading m x m block
    p: list[Poly] = [[1]]
    for m in range(1, n + 1):
        prev = p[m - 1]
        cur: Poly = [0] + list(prev)  # x * prev
        cur = _poly_sub_scaled(cur, prev, H[m - 1][m - 1])
        subdiag = 1
        for k in range(m - 1, 0, -1):
            subdiag *= H[k][k - 1]
            if not subdiag:  # every later term carries this factor
                break
            if H[k - 1][m - 1]:
                cur = _poly_sub_scaled(cur, p[k - 1], H[k - 1][m - 1] * subdiag)
        p.append(cur)
    return p[n]


def strip_zero_roots(p: Poly) -> Poly:
    """Remove every factor of x (trailing kernel dimensions)."""
    k = 0
    while k < len(p) - 1 and p[k] == 0:
        k += 1
    return list(p[k:])


def nonzero_spectra_match(mat_a, mat_b) -> bool:
    """The two charpolys agree after discarding zero eigenvalues."""
    return strip_zero_roots(charpoly(mat_a)) == strip_zero_roots(charpoly(mat_b))


def _label_str(label) -> str:
    # pair labels print i|j to stay comma-free inside CSV
    if isinstance(label, tuple):
        return "|".join(str(x) for x in label)
    return str(label)


def matrix_to_csv(matrix, row_labels=None, col_labels=None) -> str:
    """Rows of comma-separated integer entries with optional leading label
    column and header row."""
    lines = []
    if col_labels is not None:
        head = ["row"] if row_labels is not None else []
        head += [_label_str(c) for c in col_labels]
        lines.append(",".join(head))
    for idx, row in enumerate(matrix):
        cells = [_label_str(row_labels[idx])] if row_labels is not None else []
        cells += [str(x) for x in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
