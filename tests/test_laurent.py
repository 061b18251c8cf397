import itertools
import random
from fractions import Fraction

import pytest

from fkdet.fk_zd import vn_dim_kernel_zd
from fkdet.laurent import (
    ExactDivisionError,
    GroupRingMatrix,
    LaurentPolynomial,
    format_polynomial,
    parse_polynomial,
)

from helpers import mat, oracle_det, oracle_matmul, oracle_product, oracle_sum

LP = LaurentPolynomial
z = LP.variable(1)


def rand_poly(rng, rank=1, deg=3, coeff=4, terms=None):
    out = {}
    n = terms if terms is not None else rng.randrange(0, 5)
    for _ in range(n):
        e = tuple(rng.randint(-deg, deg) for _ in range(rank))
        out[e] = out.get(e, 0) + rng.randint(-coeff, coeff)
    return LP(rank, out)


def rand_matrix(rng, rows, cols, rank=1, deg=2, coeff=2):
    return GroupRingMatrix(
        [[rand_poly(rng, rank, deg, coeff) for _ in range(cols)] for _ in range(rows)],
        rank=rank,
    )


# ----------------------------------------------------------------------
# addition, multiplication, adjoint


def test_add_inverse_cancels():
    assert (z + (-z)).is_zero()


def test_add_merges_coefficients():
    one = LP.one()
    assert (one + z) + z == one + 2 * z


def test_add_disjoint_supports_rank2():
    p = LP.monomial((-1, 0))
    q = LP.monomial((0, 1))
    s = p + q
    assert s.rank == 2 and len(s) == 2


def test_add_rank_mismatch():
    with pytest.raises(ValueError):
        z + LP.one(2)


def test_mul_unit_monomials():
    zinv = LP.monomial((-1,))
    assert z * zinv == LP.one()


def test_mul_difference_of_squares():
    assert (z - 1) * (z + 1) == z * z - 1


def test_mul_identity_rank2():
    p = parse_polynomial("1 + z1 + z2")
    assert p * LP.one(2) == p


def test_zero_coefficients_never_stored():
    p = LP(1, {(0,): Fraction(0), (1,): 2})
    assert (0,) not in p.terms and p == 2 * z


def test_adjoint_definition():
    p = 2 + 3 * z
    assert p.adjoint() == 2 + 3 * LP.monomial((-1,))


def test_adjoint_rank2_monomial():
    p = LP.monomial((1, -2))
    assert p.adjoint() == LP.monomial((-1, 2))


def test_adjoint_involution_and_antihomomorphism():
    rng = random.Random(7)
    for _ in range(100):
        p = rand_poly(rng, rank=2)
        q = rand_poly(rng, rank=2)
        assert p.adjoint().adjoint() == p
        assert (p * q).adjoint() == q.adjoint() * p.adjoint()
        assert (p + q).adjoint() == p.adjoint() + q.adjoint()


def test_ring_axioms_random_triples():
    rng = random.Random(11)
    for rank in (1, 2, 3):
        for _ in range(60):
            p, q, r = (rand_poly(rng, rank=rank, deg=4) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r


# ----------------------------------------------------------------------
# support bounds, specialization


def test_support_bound_reads_support():
    p = LP(2, {(2, -3): 1, (1, 0): 1})
    assert p.support_bound(1) == 2 and p.support_bound(2) == 3


def test_support_bound_constant_and_zero():
    assert LP.constant(7).support_bound(1) == 0
    assert LP.zero(3).support_bound(2) == 0


def test_support_bound_negative_exponent():
    assert LP.monomial((-5,)).support_bound(1) == 5


def test_support_bound_axis_range():
    with pytest.raises(ValueError):
        z.support_bound(2)


def test_specialize_monomial():
    p = parse_polynomial("z1*z2")
    assert p.specialize([3]) == LP.monomial((4,))


def test_specialize_three_term():
    p = parse_polynomial("1 + z1 + z2")
    assert p.specialize([5]) == parse_polynomial("1 + z + z^5")


def test_specialize_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(60):
        p = rand_poly(rng, rank=2)
        q = rand_poly(rng, rank=2)
        ks = [rng.randint(1, 9)]
        assert (p * q).specialize(ks) == p.specialize(ks) * q.specialize(ks)
        assert (p + q).specialize(ks) == p.specialize(ks) + q.specialize(ks)
    assert LP.one(2).specialize([4]).is_one()


def test_specialize_collapses_and_sums():
    # z1**2 and z2 collide at z**2 when k2 = 2
    p = LP(2, {(2, 0): 1, (0, 1): 1})
    assert p.specialize([2]) == 2 * z * z


# ----------------------------------------------------------------------
# exact division


def test_divide_exact_roundtrip():
    rng = random.Random(17)
    for rank in (1, 2):
        for _ in range(60):
            g = rand_poly(rng, rank=rank, terms=rng.randrange(1, 4))
            h = rand_poly(rng, rank=rank, terms=rng.randrange(1, 4))
            if g.is_zero() or h.is_zero():
                continue
            assert (g * h).divide_exact(g) == h


def test_integral_coefficients_are_ints():
    # parsed, multiplied, summed and divided: int when integral, a Fraction
    # only when not, so a cancelled denominator leaves an int behind
    p = parse_polynomial("2 + z1 - 1/2*z2", rank=2)
    q = parse_polynomial("4 - 2*z2 + 1/2*z1*z2", rank=2)
    for r in (p, q, p * q, p + q, p * 2, (p * q).divide_exact(p), 2 * p - p):
        for c in r.terms.values():
            assert type(c) is (Fraction if c.denominator > 1 else int), (r, c)
    assert (p * 2).terms == {(0, 0): 4, (1, 0): 2, (0, 1): -1}
    assert LaurentPolynomial(1, [((0,), Fraction(1, 2)), ((0,), Fraction(1, 2))]).terms == {(0,): 1}
    assert type((p * q).divide_exact(q).terms[(0, 0)]) is int


def test_divide_exact_rejects_uneven():
    with pytest.raises(ExactDivisionError):
        (z * z + 1).divide_exact(z + 1)


# ----------------------------------------------------------------------
# matrices


def test_mat_mul_identity():
    rng = random.Random(19)
    A = rand_matrix(rng, 2, 3)
    assert A @ GroupRingMatrix.identity(3) == A


def test_mat_mul_unit_monomials():
    A = GroupRingMatrix([[z]])
    B = GroupRingMatrix([[LP.monomial((-1,))]])
    assert (A @ B)[0, 0].is_one()


def test_mat_mul_associative():
    rng = random.Random(23)
    for _ in range(20):
        A = rand_matrix(rng, 2, 2)
        B = rand_matrix(rng, 2, 2)
        C = rand_matrix(rng, 2, 2)
        assert (A @ B) @ C == A @ (B @ C)


def test_mat_adjoint_1x1():
    A = GroupRingMatrix([[z]])
    assert A.adjoint()[0, 0] == LP.monomial((-1,))


def test_mat_adjoint_involution_and_antihomomorphism():
    rng = random.Random(29)
    for _ in range(20):
        A = rand_matrix(rng, 2, 3)
        B = rand_matrix(rng, 3, 2)
        assert A.adjoint().adjoint() == A
        assert (A @ B).adjoint() == B.adjoint() @ A.adjoint()


def test_det_diagonal_units():
    A = GroupRingMatrix([[z, LP.zero()], [LP.zero(), LP.monomial((-1,))]])
    assert A.det().is_one()


def test_det_triangular():
    A = mat([["1 + z", "1"], ["0", "1 - z"]])
    assert A.det() == parse_polynomial("1 - z^2")


def test_det_commutes_with_specialization():
    rng = random.Random(31)
    for _ in range(30):
        A = rand_matrix(rng, 2, 2, rank=2)
        ks = [rng.randint(1, 7)]
        B = GroupRingMatrix([[p.specialize(ks) for p in row] for row in A.entries], rank=1)
        assert A.det().specialize(ks) == B.det()


def test_det_matches_cofactor_oracle_small():
    # independent cofactor expansion for sizes <= 3
    def oracle(A):
        n = A.rows
        if n == 1:
            return A[0, 0]
        total = LP.zero(A.rank)
        for j in range(n):
            minor = GroupRingMatrix(
                [[A[i, jj] for jj in range(n) if jj != j] for i in range(1, n)],
                rank=A.rank,
            )
            term = A[0, j] * oracle(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    rng = random.Random(37)
    for n in (1, 2, 3):
        for _ in range(20):
            A = rand_matrix(rng, n, n)
            assert A.det() == oracle(A)


def test_det_bareiss_agrees_with_cofactor_at_size_5():
    rng = random.Random(41)
    for _ in range(5):
        A = rand_matrix(rng, 5, 5, deg=1, coeff=2)
        # the 5x5 determinant (elimination) against its expansion along the
        # last column, whose 4x4 minors take cofactor expansion
        expansion = LP.zero(1)
        for i in range(5):
            minor = GroupRingMatrix(
                [[A[r, c] for c in range(4)] for r in range(5) if r != i], rank=1
            )
            term = A[i, 4] * minor.det()
            expansion = expansion + (term if (i + 4) % 2 == 0 else -term)
        assert A.det() == expansion


def leibniz_det(A):
    """Sum over permutations of the signed products of entries."""
    total = LP.zero(A.rank)
    for perm in itertools.permutations(range(A.rows)):
        term = LP.one(A.rank)
        for i, j in enumerate(perm):
            term = term * A[i, j]
            if term.is_zero():
                break
        else:
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            total = total + (-term if inversions % 2 else term)
    return total


def sparse_matrix(rng, rows, cols, rank, terms=2):
    return GroupRingMatrix(
        [[rand_poly(rng, rank, deg=1, coeff=2, terms=terms) for _ in range(cols)] for _ in range(rows)],
        rank=rank,
    )


def test_det_matches_leibniz_through_both_routes():
    # cofactor expansion up to size 4, the shared elimination at 5 and 6
    rng = random.Random(53)
    for rank in (1, 2):
        for n in range(1, 7):
            generic = sparse_matrix(rng, n, n, rank)
            # singular for n > 1; monomial factors keep Leibniz affordable
            inner = rng.randrange(1, min(n, 4)) if n > 1 else 1
            low = sparse_matrix(rng, n, inner, rank, 1) @ sparse_matrix(rng, inner, n, rank, 1)
            # a zero (0, 0) entry makes the elimination swap rows
            swapped = GroupRingMatrix(
                [[LP.zero(rank) if (i, j) == (0, 0) else generic[i, j] for j in range(n)]
                 for i in range(n)],
                rank=rank,
            )
            for A in (generic, low, swapped):
                assert A.det() == leibniz_det(A)
            if n > 1:
                assert low.det().is_zero()


def rank_k_product(rng, rows, cols, k, rank):
    """A rows x cols matrix of rank exactly k over the fraction field: L @ R
    with a nonzero diagonal k x k block on top of L and left of R, then its
    rows and columns shuffled."""
    def factor(r, c):
        m = [[rand_poly(rng, rank, deg=1, coeff=2, terms=2) for _ in range(c)] for _ in range(r)]
        for i in range(k):
            for j in range(k):
                m[i][j] = LP.zero(rank)
            while m[i][i].is_zero():
                m[i][i] = rand_poly(rng, rank, deg=1, coeff=2, terms=2)
        return m
    left = factor(rows, k)
    right = [list(col) for col in zip(*factor(cols, k))]
    A = GroupRingMatrix(left, rank=rank) @ GroupRingMatrix(right, rank=rank)
    row_order = rng.sample(range(rows), rows)
    col_order = rng.sample(range(cols), cols)
    return GroupRingMatrix([[A[i, j] for j in col_order] for i in row_order], rank=rank)


def test_kernel_basis_of_rank_k_products():
    rng = random.Random(59)
    cases = [(r, c, k) for r in range(1, 5) for c in range(1, 5) for k in range(1, min(r, c) + 1)]
    for rows, cols, k in cases:
        rank = 2 if rows * cols <= 9 else 1
        A = rank_k_product(rng, rows, cols, k, rank)
        assert vn_dim_kernel_zd(A) == rows - k
        for variant in ("canonical", "reversed"):
            q, B = A.kernel_basis(variant)
            assert q == rows - k and (B.rows, B.cols) == (q, rows)
            assert (B @ A).is_zero()
            if q:
                assert vn_dim_kernel_zd(B) == 0


def test_kernel_explicit_2x1():
    A = GroupRingMatrix([[z], [LP.zero()]])
    q, B = A.kernel_basis()
    assert q == 1
    assert (B @ A).is_zero()
    assert B.rows == 1 and B.cols == 2
    assert B[0, 0].is_zero() and not B[0, 1].is_zero()


def test_kernel_2x1_up_to_unit():
    A = GroupRingMatrix([[parse_polynomial("1 + z")], [LP.constant(2)]])
    q, B = A.kernel_basis()
    assert q == 1
    assert (B @ A).is_zero()
    # row proportional to (2, -(1+z)) over the fraction field
    lhs = B[0, 0] * parse_polynomial("1 + z")
    rhs = B[0, 1] * LP.constant(2)
    assert lhs == -rhs


def test_kernel_invertible_square():
    A = mat([["z", "1"], ["0", "z - 2"]])
    q, B = A.kernel_basis()
    assert q == 0 and B.rows == 0 and B.cols == 2


def test_kernel_zero_matrix_full():
    A = GroupRingMatrix.zero(2, 3, rank=1)
    q, B = A.kernel_basis()
    assert q == 2 and (B @ A).is_zero()


def test_kernel_rows_full_rank_and_annihilate():
    rng = random.Random(43)
    for _ in range(40):
        r, s = rng.choice([(2, 1), (3, 1), (3, 2), (2, 2), (4, 2)])
        A = rand_matrix(rng, r, s, rank=rng.choice([1, 2]))
        q, B = A.kernel_basis()
        assert (B @ A).is_zero()
        assert r - q <= min(r, s)
        if q:
            # rows of B are independent over the fraction field
            assert B.kernel_basis()[0] == 0


def test_kernel_canonical_normalization():
    A = GroupRingMatrix([[4 * z * z], [LP.zero()]])
    _, B = A.kernel_basis()
    row = [B[0, j] for j in range(2)]
    # content 1 and minimal exponents 0
    nz = [p for p in row if not p.is_zero()]
    assert nz[0].content() == 1
    assert all(m == 0 for p in nz for m in p.min_exponents())
    # a zero row of A has a unit kernel row, whatever the pivot
    A = mat([["0", "0"], ["0", "z^3 - 2"]])
    assert A.kernel_basis() == (1, mat([["1", "0"]]))


def test_kernel_variant_reversed_differs_but_annihilates():
    rng = random.Random(47)
    seen_difference = False
    for _ in range(20):
        A = rand_matrix(rng, 3, 2, rank=1)
        q1, B1 = A.kernel_basis("canonical")
        q2, B2 = A.kernel_basis("reversed")
        assert q1 == q2
        assert (B2 @ A).is_zero()
        if q1 and B1 != B2:
            seen_difference = True
    assert seen_difference


# ----------------------------------------------------------------------
# grammar


def test_parse_lehmer_polynomial():
    p = parse_polynomial("z^10 + z^9 - z^7 - z^6 - z^5 - z^4 - z^3 + z + 1")
    assert p.rank == 1 and len(p) == 9
    assert p.coefficient((10,)) == 1 and p.coefficient((3,)) == -1


def test_parse_constant_default_rank():
    p = parse_polynomial("1")
    assert p.rank == 1 and p.is_one()
    assert parse_polynomial("1", rank=2).rank == 2


def test_parse_rank2():
    p = parse_polynomial("z1*z2^-2 + 3")
    assert p.rank == 2 and len(p) == 2
    assert p.coefficient((1, -2)) == 1 and p.constant_coefficient() == 3


def test_parse_coefficient_star_optional():
    assert parse_polynomial("2*z") == parse_polynomial("2z")


def test_parse_whitespace_ignored():
    assert parse_polynomial(" z ^ 1 0 + 1 ") == parse_polynomial("z^10+1")


def test_parse_merges_repeated_terms():
    assert parse_polynomial("z + z") == 2 * z
    assert parse_polynomial("z - z").is_zero()


def test_parse_errors():
    for bad in ("", "z +", "3*", "q^2", "z^", "1 ++ 2"):
        with pytest.raises(ValueError):
            parse_polynomial(bad)
    with pytest.raises(ValueError):
        parse_polynomial("z2 + z", rank=2)  # bare z mixed with indexed variables
    with pytest.raises(ValueError):
        parse_polynomial("z3", rank=2)


def test_parse_letter_substitution():
    p = parse_polynomial("t + 2", letter="t")
    assert p == z + 2


def test_print_parse_roundtrip_random():
    rng = random.Random(53)
    for _ in range(1000):
        rank = rng.choice([1, 2, 3])
        p = rand_poly(rng, rank=rank, deg=5, coeff=9)
        assert parse_polynomial(format_polynomial(p), rank=rank) == p


def test_canonical_print_orders_lexicographically():
    p = LP(2, {(1, 0): 1, (-1, 2): -2, (0, 0): -3})
    assert format_polynomial(p) == "-2*z1^-1*z2^2 - 3 + z1"


# ----------------------------------------------------------------------
# canonical terms: every operation's result is what the validating
# constructor would make of it, and what the term-by-term oracle computes


def _check_canonical(p):
    assert p.terms == LP(p.rank, dict(p.terms)).terms
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == p.rank
        assert all(type(x) is int for x in e), e
        assert c != 0
        assert type(c) is (Fraction if c.denominator > 1 else int), (p, c)


def _rand_canonical_poly(rng, rank, rational):
    # halves, thirds and quarters, so sums and products come out integral
    # and cancel to zero often
    terms = {}
    for _ in range(rng.randrange(0, 4)):
        e = tuple(rng.randint(-1, 1) for _ in range(rank))
        c = rng.randint(-2, 2)
        if rational and rng.random() < 0.5:
            c = Fraction(rng.choice([-3, -1, 1, 2, 3]), rng.choice([2, 3, 4]))
        terms[e] = terms.get(e, 0) + c
    return LP(rank, terms)


@pytest.mark.parametrize("rational", [False, True], ids=["Z", "Q"])
def test_operations_keep_terms_canonical(rational):
    rng = random.Random(27 + rational)
    for rank in (1, 2):
        for _ in range(150):
            p = _rand_canonical_poly(rng, rank, rational)
            q = _rand_canonical_poly(rng, rank, rational)
            s = rng.choice([0, 1, -2, 3, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 3)])
            shift = tuple(rng.randint(-2, 2) for _ in range(rank))
            for got, want in [
                (p + q, oracle_sum(p, q)),
                (p - q, oracle_sum(p, q, -1)),
                (p - p, LP(rank)),
                (p * q, oracle_product(p, q)),
                (p * q - q * p, LP(rank)),
                (p * s, oracle_product(p, LP.constant(s, rank))),
                (s * p, oracle_product(p, LP.constant(s, rank))),
                (p.adjoint(), LP(rank, {tuple(-x for x in e): c for e, c in p.terms.items()})),
                (p.shifted(shift), oracle_product(p, LP.monomial(shift))),
                (parse_polynomial(format_polynomial(p), rank=rank), p),
            ]:
                _check_canonical(got)
                assert got.terms == want.terms
        for n in (1, 2, 3, 4, 5):
            for _ in range(12 if n < 5 else 3):
                rows = [[_rand_canonical_poly(rng, rank, rational) for _ in range(n)] for _ in range(n)]
                if rng.random() < 0.25 and n > 1:
                    # a repeated row: the signed products cancel to zero
                    rows[-1] = list(rows[0])
                a = GroupRingMatrix(rows, rank=rank)
                b = GroupRingMatrix(
                    [[_rand_canonical_poly(rng, rank, rational) for _ in range(2)] for _ in range(n)],
                    rank=rank,
                )
                det = a.det()
                _check_canonical(det)
                assert det.terms == oracle_det(rows, rank).terms
                prod = a @ b
                assert prod == oracle_matmul(a, b)
                for row in prod.entries:
                    for entry in row:
                        _check_canonical(entry)


def test_dense_coefficients_fill_gaps_with_int_zero():
    lo, coeffs = parse_polynomial("z^-2 + 1/2*z^2").dense_coefficients()
    assert lo == -2
    assert coeffs == [1, 0, 0, 0, Fraction(1, 2)]
    assert [type(c) for c in coeffs] == [int, int, int, int, Fraction]
