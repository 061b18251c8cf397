"""Exact determinants, ranks, and division-free characteristic polynomials."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from fkdet import exact_linalg
from fkdet.exact_linalg import (
    charpoly_berkowitz,
    det_batch,
    det_exact,
    eliminate,
    mat_mul_exact,
    mat_transpose,
    rank_exact,
)
from fkdet.laurent import GroupRingMatrix, LaurentPolynomial


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        total += -term if j % 2 else term
    return total


def _rand_int_matrix(rng, n, bound=6):
    return [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(n)]


def test_det_known_values():
    assert det_exact([]) == 1
    assert det_exact([[5]]) == 5
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([[Fraction(1, 2)]]) == Fraction(1, 2)
    assert det_exact([[Fraction(1, 2), 1], [1, 4]]) == 1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_exact([[1, 2]])


def test_det_matches_cofactor_expansion():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randrange(1, 5)
        m = _rand_int_matrix(rng, n)
        assert det_exact(m) == _cofactor_det(m)


def test_det_multiplicative():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randrange(1, 5)
        a = _rand_int_matrix(rng, n, 4)
        b = _rand_int_matrix(rng, n, 4)
        assert det_exact(mat_mul_exact(a, b)) == det_exact(a) * det_exact(b)


def test_rank_basic():
    assert rank_exact([]) == 0
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([[1, 0], [0, 1]]) == 2
    assert rank_exact([[1, 2], [2, 4]]) == 1
    assert rank_exact([[1, 2, 3]]) == 1
    assert rank_exact([[Fraction(1, 3)], [Fraction(2, 3)]]) == 1


def test_rank_constructed():
    # start from an echelon form with known rank and shear it with
    # unimodular row and column operations
    rng = random.Random(31)
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        r = rng.randrange(0, min(m, n) + 1)
        mat = [[0] * n for _ in range(m)]
        for i in range(r):
            mat[i][i] = rng.choice([1, -1, 2, 3])
            for j in range(i + 1, n):
                mat[i][j] = rng.randrange(-3, 4)
        for _ in range(6):
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                c = rng.randrange(-2, 3)
                mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
        assert rank_exact(mat) == r


def test_rank_bounded_by_transpose():
    rng = random.Random(37)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
        assert rank_exact(mat) == rank_exact(mat_transpose(mat))


def _brute_rank(rows):
    # the largest k with a nonzero k x k minor
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                if _cofactor_det([[rows[i][j] for j in cs] for i in rs]):
                    return k
    return 0


def _skipping_matrix(rng, m, n, fractions):
    # random entries, then a zero column and a dependent column inside the
    # matrix, so the elimination meets columns without a pivot mid-way
    def entry():
        x = rng.randrange(-2, 3)
        return Fraction(x, rng.randrange(1, 4)) if fractions else x

    mat = [[entry() for _ in range(n)] for _ in range(m)]
    if n >= 3 and rng.random() < 0.5:
        z = rng.randrange(1, n - 1)
        for row in mat:
            row[z] = 0
    if n >= 3 and rng.random() < 0.7:
        d = rng.randrange(1, n)
        a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
        for row in mat:
            row[d] = a * row[0] + b * row[d - 1]
    if m >= 2 and rng.random() < 0.3:
        mat[rng.randrange(1, m)] = [2 * x for x in mat[0]]
    return mat


def test_shared_elimination_matches_minors():
    rng = random.Random(47)
    for trial in range(400):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        if trial % 3 == 0:
            n = m
        mat = _skipping_matrix(rng, m, n, fractions=trial % 2 == 1)
        before = [row[:] for row in mat]
        assert rank_exact(mat) == _brute_rank(mat)
        if m == n:
            assert det_exact(mat) == _cofactor_det(mat)
        assert mat == before


def test_eliminate_with_width_gives_the_left_kernel():
    # [A | I] pivoted in A's columns: the identity part of every row past
    # the rank annihilates A, and those parts are independent
    rng = random.Random(53)
    for trial in range(200):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        a = _skipping_matrix(rng, m, n, fractions=False)
        work = [row + [int(i == k) for k in range(m)] for i, row in enumerate(a)]
        rank, _ = eliminate(work, n)
        assert rank == _brute_rank(a)
        kernel = [row[n:] for row in work[rank:]]
        assert all(x == 0 for row in work[rank:] for x in row[:n])
        assert all(x == 0 for row in mat_mul_exact(kernel, a) for x in row)
        if kernel:
            assert rank_exact(kernel) == m - rank


def test_charpoly_small_cases():
    assert charpoly_berkowitz([]) == [1]
    assert charpoly_berkowitz([[7]]) == [-7, 1]
    a, b, c, d = 2, 3, 5, 7
    assert charpoly_berkowitz([[a, b], [c, d]]) == [a * d - b * c, -(a + d), 1]


def test_charpoly_diagonal_roots():
    coeffs = charpoly_berkowitz([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    for t in (1, 2, 3):
        assert sum(co * t ** i for i, co in enumerate(coeffs)) == 0
    assert coeffs[-1] == 1


def _charpoly_oracle(rows):
    # det(t*I - M) computed with the exact commutative determinant over
    # one-variable Laurent polynomials
    n = len(rows)
    t = LaurentPolynomial.variable(1)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            p = LaurentPolynomial.constant(-rows[i][j], 1)
            if i == j:
                p = p + t
            row.append(p)
        entries.append(row)
    det = GroupRingMatrix(entries).det()
    if det.is_zero():
        return [0] * (n + 1)
    low, coeffs = det.dense_coefficients()
    return [0] * low + coeffs


def test_charpoly_matches_commutative_determinant():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = _rand_int_matrix(rng, n, 4)
        got = charpoly_berkowitz(m)
        want = _charpoly_oracle(m)
        want = want + [0] * (len(got) - len(want))
        assert got == want


def test_charpoly_trace_and_det_coefficients():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randrange(1, 6)
        m = _rand_int_matrix(rng, n, 5)
        coeffs = charpoly_berkowitz(m)
        assert coeffs[-1] == 1
        trace = sum(m[i][i] for i in range(n))
        assert coeffs[-2] == -trace
        sign = 1 if n % 2 == 0 else -1
        assert coeffs[0] == sign * det_exact([row[:] for row in m])


def test_charpoly_fraction_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    coeffs = charpoly_berkowitz(m)
    det = Fraction(1, 2) * Fraction(1, 7) - Fraction(1, 3) * Fraction(1, 5)
    assert coeffs == [det, -(Fraction(1, 2) + Fraction(1, 7)), 1]


def test_charpoly_singular_has_zero_constant_term():
    m = [[1, 1], [1, 1]]
    coeffs = charpoly_berkowitz(m)
    assert coeffs[0] == 0
    assert coeffs == [0, -2, 1]


# ---------------------------------------------------------------------------
# batched determinants modulo word-size primes


def _primes_used(monkeypatch) -> list:
    """The primes det_batch eliminates modulo, recorded as it runs."""
    used = []
    det_mod = exact_linalg._det_mod

    def recording(a, p):
        used.append(p)
        return det_mod(a, p)

    monkeypatch.setattr(exact_linalg, "_det_mod", recording)
    return used


def test_det_batch_matches_det_exact():
    rng = random.Random(31)
    for n in (1, 2, 3, 5, 8):
        mats = [_rand_int_matrix(rng, n, bound=3) for _ in range(40)]
        # a repeated row: singular
        mats.append([mats[0][0]] * n)
        got = det_batch(np.array(mats))
        assert got == [det_exact(m) for m in mats]
        assert all(type(d) is int for d in got)


def test_det_batch_takes_two_primes_past_the_hadamard_bound(monkeypatch):
    # 10x10 with entries +-3: every Hadamard bound is 90**5, over 2**31, so
    # the determinants, multiples of 3**10 * 2**9, come from two primes
    used = _primes_used(monkeypatch)
    rng = random.Random(37)
    mats = [
        [[rng.choice((-3, 3)) for _ in range(10)] for _ in range(10)]
        for _ in range(12)
    ]
    mats.append([[3] * 10] * 10)
    want = [det_exact(m) for m in mats]
    assert det_batch(np.array(mats)) == want
    assert used == [2**31 - 1, 2147483629]
    assert want[-1] == 0 and all(d % (3**10 * 2**9) == 0 for d in want)


def test_det_batch_has_no_false_zero_at_a_prime():
    # det = 2**31 - 1, the first prime, both from a large entry and from
    # small ones (46341**2 - 2 * 2317); a zero and a negative one beside them
    p = 2**31 - 1
    mats = [
        [[p, 0], [0, 1]],
        [[46341, 2], [2317, 46341]],
        [[1, 2], [2, 4]],
        [[0, 1], [1, 0]],
        [[-p, 0], [0, 1]],
    ]
    assert det_batch(np.array(mats)) == [p, p, 0, -1, -p]
    assert det_batch(np.array([[[p, 0], [0, p]]])) == [p * p]


def test_det_batch_edge_shapes():
    assert det_batch(np.zeros((0, 3, 3), dtype=np.int64)) == []
    assert det_batch(np.zeros((2, 0, 0), dtype=np.int64)) == [1, 1]
    assert det_batch(np.array([[[-7]]])) == [-7]
