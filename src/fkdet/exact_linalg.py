"""Exact dense linear algebra over the integers and rationals.

Matrices are lists of rows holding int or Fraction entries; the sizes
here come from regular representations of modest finite groups, so
clarity wins over asymptotics.  Ranks and determinants come from one
fraction-free (Bareiss) elimination on the matrix with its rows scaled
to integers, so no rational arithmetic occurs; characteristic
polynomials use the division-free Berkowitz scheme.

Both loops are generic.  The elimination, ``eliminate``, works over any
integral domain whose elements support ``*``, ``-``, truth testing and
exact division by ``//``: the Laurent ring of ``laurent`` takes its
determinants, ranks and kernel bases from the same loop.  The Berkowitz
scheme needs no division at all, so ``fk_finite`` (over the integers) and
``fk_zd`` (over the Laurent ring) share it for the product of the nonzero
eigenvalues of a singular Gram matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Row = list
Matrix = list


def mat_transpose(rows: Matrix) -> Matrix:
    return [list(col) for col in zip(*rows)] if rows else []


def mat_mul_exact(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = mat_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _clear_denominators(rows: Matrix) -> tuple[Matrix, int]:
    """Scale each row to integers; returns the int matrix and the product of scales."""
    out = []
    total = 1
    for row in rows:
        scale = 1
        for x in row:
            if isinstance(x, Fraction):
                d = x.denominator
                scale = scale * d // gcd(scale, d)
        total *= scale
        out.append([int(x * scale) for x in row])
    return out, total


def eliminate(a: Matrix, width: int | None = None) -> tuple:
    """Fraction-free (Bareiss) elimination over an integral domain, in place.

    Pivots are taken in the first ``width`` columns (all of them by
    default), each the first nonzero entry of its column, and every column
    is updated.  Returns the rank of those columns and the signed last
    pivot.  A column without a pivot is skipped, so every entry produced
    is a minor of the input and each division by the previous pivot is
    exact (Sylvester's identity).  For a square matrix of full rank the
    signed last pivot is the determinant.  Eliminating ``[A | I]`` with
    ``width`` the column count of ``A`` leaves, in each row from the rank
    on, an identity part that annihilates ``A``.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    sign = 1
    prev = 1
    for col in range(n if width is None else width):
        if rank == m:
            break
        pivot_row = next((i for i in range(rank, m) if a[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            a[rank], a[pivot_row] = a[pivot_row], a[rank]
            sign = -sign
        row_k = a[rank]
        pivot = row_k[col]
        for i in range(rank + 1, m):
            row_i = a[i]
            lead = row_i[col]
            for j in range(col + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[col] = 0
        prev = pivot
        rank += 1
    return rank, sign * prev


def rank_det_exact(rows: Matrix) -> tuple:
    """Rank over the rationals and the determinant, from one elimination.

    The determinant is 0 for a singular or non-square matrix, an int when
    the entries are integers, else a Fraction.  The input is not modified;
    rows of plain ints are copied as they are, others scaled to integers.
    """
    if all(type(x) is int for row in rows for x in row):
        ints, scale = [list(row) for row in rows], 1
    else:
        ints, scale = _clear_denominators(rows)
    rank, last = eliminate(ints)
    if rank < len(rows) or (rows and len(rows[0]) != len(rows)):
        return rank, 0
    return rank, last if scale == 1 else Fraction(last, scale)


def det_exact(rows: Matrix):
    """Exact determinant of a square int/Fraction matrix (int when possible)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    return rank_det_exact(rows)[1]


def rank_exact(rows: Matrix) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    return rank_det_exact(rows)[0]


def charpoly_berkowitz(rows: Matrix) -> list:
    """Coefficients of det(t*I - M), ascending in t, computed division-free.

    The result is monic (last coefficient the int 1) and exact: only
    additions, subtractions and multiplications of the input entries occur,
    so it holds over any commutative ring whose elements mix with the ints
    0 and 1.  Integer matrices give integer coefficients, and Laurent
    matrices Laurent polynomials (``fk_zd`` measures the lowest nonzero
    one of a singular SS*).
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return [1]
    # v holds the coefficients for the leading principal r x r block,
    # ordered by descending power of t
    v = [1, -rows[0][0]]
    for r in range(2, n + 1):
        corner = rows[r - 1][r - 1]
        row_part = rows[r - 1][:r - 1]
        col_part = [rows[i][r - 1] for i in range(r - 1)]
        block = [row[:r - 1] for row in rows[:r - 1]]
        # first column of the (r+1) x r lower-triangular Toeplitz update:
        # 1, -corner, then -row_part . block^j . col_part for j = 0..r-2
        col = [1, -corner]
        w = col_part
        for _ in range(r - 1):
            col.append(-sum(x * y for x, y in zip(row_part, w)))
            w = [sum(x * y for x, y in zip(block_row, w)) for block_row in block]
        new_v = []
        for i in range(r + 1):
            acc = 0
            for j in range(min(i, r - 1) + 1):
                acc += col[i - j] * v[j]
            new_v.append(acc)
        v = new_v
    v.reverse()
    return v
