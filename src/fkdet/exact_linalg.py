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
determinants, ranks and kernel bases from the same loop, and it can
report its pivot columns, from which ``fk_finite`` takes the product of
the nonzero eigenvalues of a singular rational Gram matrix.  The Berkowitz
scheme needs no division at all, so ``fk_zd`` takes that product over the
Laurent ring from it.

``det_batch`` is the one numpy path: the exact determinants of a whole
stack of square integer matrices at once, by Gaussian elimination modulo
word-size primes, vectorised over the stack, and the Chinese remainder
theorem.  The primes' product exceeds twice the stack's Hadamard bound, so
every determinant, zero included, is exact.  The word primes come from
``intpoly.word_prime``, which the square-free proof of ``mahler`` uses too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, log2

import numpy as np

from .intpoly import word_prime

Matrix = list


def mat_transpose(rows: Matrix) -> Matrix:
    return [list(col) for col in zip(*rows)] if rows else []


def mat_mul_exact(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = mat_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def clear_denominators(rows: Matrix) -> tuple[Matrix, int]:
    """Scale each row to integers; returns the int matrix and the product of scales."""
    out, total = [], 1
    for row in rows:
        scale = lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
        total *= scale
        out.append([int(x * scale) for x in row])
    return out, total


def eliminate(a: Matrix, width: int | None = None, pivots: list | None = None) -> tuple:
    """Fraction-free (Bareiss) elimination over an integral domain, in place.

    Pivots are taken in the first ``width`` columns (all of them by
    default), each the first nonzero entry of its column, and every column
    is updated.  Returns the rank of those columns and the signed last
    pivot.  A column without a pivot is skipped, so every entry produced
    is a minor of the input and each division by the previous pivot is
    exact (Sylvester's identity).  For a square matrix of full rank the
    signed last pivot is the determinant.  Eliminating ``[A | I]`` with
    ``width`` the column count of ``A`` leaves, in each row from the rank
    on, an identity part that annihilates ``A``.  When ``pivots`` is a
    list, the column of each pivot is appended to it.
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
        if pivots is not None:
            pivots.append(col)
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
        ints, scale = clear_denominators(rows)
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


def _inverse_mod(x, p: int):
    """x**(p - 2) mod p elementwise, by square and multiply: the inverse of
    each nonzero residue, and 0 for 0."""
    out = np.ones_like(x)
    base = x.copy()
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _det_mod(a, p: int):
    """The determinants modulo p, in [0, p), of a (B, N, N) int64 stack, by
    Gaussian elimination with one pivot step per column over the whole
    stack.  No step divides: each row below the pivot becomes lead * row -
    entry * pivot row, which scales the determinant by lead, and one
    inverse of the accumulated scale at the end undoes that.  A column
    without a pivot leaves a determinant of 0."""
    r = a % p
    b, n = r.shape[:2]
    every = np.arange(b)
    det = np.ones(b, dtype=np.int64)
    scale = np.ones(b, dtype=np.int64)
    for col in range(n):
        # the first nonzero entry on or below the diagonal; col when none
        piv = col + (r[:, col:, col] != 0).argmax(axis=1)
        top = r[every, col].copy()
        r[every, col] = r[every, piv]
        r[every, piv] = top
        det = np.where(piv != col, p - det, det)
        lead = r[:, col, col].copy()
        det = det * lead % p
        for _ in range(n - col - 1):
            scale = scale * lead % p
        below = r[:, col + 1 :, col + 1 :]
        below *= lead[:, None, None]
        below -= r[:, col + 1 :, col, None] * r[:, None, col, col + 1 :]
        below %= p
    return det * _inverse_mod(scale, p) % p


def det_batch(mats) -> list:
    """Exact determinants of a (B, N, N) stack of integer matrices, as B
    Python ints.

    Each determinant is found modulo k primes below 2**31 by _det_mod and
    recombined by the Chinese remainder theorem.  k is the least number
    whose product exceeds twice the stack's largest Hadamard bound (the
    product of the row 2-norms) with one more bit of margin, which covers
    the float rounding of the bound; the centred residue is then the
    determinant, and a determinant of 0 is exact.  Entries must fit in
    int64.
    """
    a = np.asarray(mats, dtype=np.int64)
    if len(a) == 0:
        return []
    rows = np.einsum("bij,bij->bi", a, a, dtype=np.float64, casting="unsafe")
    # log2 of 2H plus one bit; a zero row counts as norm 1 (its det is 0)
    need = float(np.log2(np.maximum(rows, 1.0)).sum(axis=1).max()) / 2 + 2
    primes, bits = [], 0.0
    while bits <= need:
        primes.append(word_prime(len(primes)))
        bits += log2(primes[-1])
    total = _det_mod(a, primes[0]).tolist()
    m = primes[0]
    for q in primes[1:]:
        inv = pow(m, -1, q)
        residues = _det_mod(a, q).tolist()
        total = [x + m * ((r - x) * inv % q) for x, r in zip(total, residues)]
        m *= q
    half = m // 2
    return [x - m if x > half else x for x in total]
