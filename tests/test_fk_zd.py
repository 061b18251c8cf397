"""Short-side determinants over Q[Z^d]."""

import itertools
import math
import random
import time

import pytest

from fkdet.exact_linalg import charpoly_berkowitz
from fkdet.fk_zd import fk_det_zd, vn_dim_kernel_zd
from fkdet.laurent import (
    GroupRingMatrix,
    LaurentPolynomial,
    matrix_from_json,
    matrix_to_json,
    parse_polynomial,
)
from fkdet.mahler import (
    default_bl_schedule,
    log_mahler_quadrature,
    mahler_boyd_lawton,
    mahler_jensen,
)

from helpers import kernel_reduction_on_a, mat

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
TWO_VAR_MEASURE = 1.3813564445  # M(1 + z1 + z2)
LEHMER = "z^10 + z^9 - z^7 - z^6 - z^5 - z^4 - z^3 + z + 1"


def rand_poly(rng, rank, spread=1, bound=2):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        e = tuple(rng.randrange(-spread, spread + 1) for _ in range(rank))
        terms[e] = terms.get(e, 0) + rng.randrange(-bound, bound + 1)
    return LaurentPolynomial(rank, terms)


def rand_matrix(rng, rows, cols, rank=1):
    return GroupRingMatrix(
        [[rand_poly(rng, rank) for _ in range(cols)] for _ in range(rows)], rank=rank
    )


# ---------------------------------------------------------------------------
# kernel dimension


def test_vn_dim_examples():
    assert vn_dim_kernel_zd(mat([["z - 1"]])) == 0
    assert vn_dim_kernel_zd(mat([["z - 1"], ["z^2 - 1"]])) == 1
    assert vn_dim_kernel_zd(GroupRingMatrix.zero(2, 3, 1)) == 2
    assert vn_dim_kernel_zd(GroupRingMatrix.zero(2, 3, 2)) == 2


def test_weak_isomorphism_criterion():
    rng = random.Random(101)
    seen_singular = 0
    for _ in range(40):
        a = rand_matrix(rng, 2, 2)
        injective = vn_dim_kernel_zd(a) == 0
        assert injective == (not a.det().is_zero())
        seen_singular += not injective
    p = rand_poly(rng, 1)
    q = rand_poly(rng, 1)
    dependent = GroupRingMatrix([[p, q], [p * 2, q * 2]], rank=1)
    assert vn_dim_kernel_zd(dependent) >= 1
    assert dependent.det().is_zero()


# ---------------------------------------------------------------------------
# pipeline golden values


def test_injective_one_by_one():
    trace = fk_det_zd(mat([["z - 2"]]))
    assert (trace.side, trace.route) == ("matrix", "det")
    assert trace.q == 0
    assert trace.detD1 == parse_polynomial("z - 2")
    assert trace.value.method == "jensen"
    assert math.isclose(trace.value.value, 2.0, rel_tol=1e-12)


def test_column_matrix_against_direct_formula():
    a = mat([["z - 1"], ["z - 2"]])
    trace = fk_det_zd(a)
    assert trace.q == 1
    direct = math.sqrt(mahler_jensen(parse_polynomial("7 - 3*z - 3*z^-1")).value)
    assert math.isclose(trace.value.value, direct, rel_tol=1e-8)


def test_square_matrix_with_golden_ratio_determinant():
    a = mat([["z", "1"], ["1", "z - 1"]])
    assert a.det() == parse_polynomial("z^2 - z - 1")
    trace = fk_det_zd(a)
    assert math.isclose(trace.value.value, GOLDEN_RATIO, rel_tol=1e-8)


def test_zero_matrix_returns_one():
    for rank in (1, 2):
        trace = fk_det_zd(GroupRingMatrix.zero(2, 3, rank))
        assert (trace.route, trace.q) == ("charpoly", 2)
        assert trace.detD1.is_one()
        assert trace.value.value == 1.0


def test_lehmer_value_through_pipeline():
    trace = fk_det_zd(mat([[LEHMER]]))
    assert math.isclose(trace.value.value, 1.176280818259917, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# pipeline properties


def test_pipeline_matches_jensen_on_random_squares():
    rng = random.Random(103)
    done = 0
    while done < 12:
        n = rng.randrange(1, 4)
        a = rand_matrix(rng, n, n)
        det = a.det()
        if det.is_zero():
            continue
        want = mahler_jensen(det).value
        got = fk_det_zd(a).value.value
        assert math.isclose(got, want, rel_tol=1e-8)
        done += 1


def test_kernel_reduction_on_a_is_independent_of_the_basis():
    # the oracle of the short-side tests below: both kernel bases give
    # one value within the summed estimates, and so does fk_det_zd
    rng = random.Random(107)
    p = rand_poly(rng, 1)
    q = rand_poly(rng, 1)
    inputs = [rand_matrix(rng, 3, 2) for _ in range(10)]
    inputs += [rand_matrix(rng, 3, 2, rank=2) for _ in range(3)]
    inputs.append(GroupRingMatrix([[p, q], [p, q]], rank=1))
    for a in inputs:
        canonical, canonical_error = kernel_reduction_on_a(a, "canonical")
        reversed_, reversed_error = kernel_reduction_on_a(a, "reversed")
        assert abs(canonical - reversed_) <= canonical_error + reversed_error, a
        got = fk_det_zd(a).value
        assert abs(got.value - canonical) <= got.error_estimate + canonical_error, a


def test_adjoint_symmetry():
    rng = random.Random(109)
    for _ in range(10):
        a = rand_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        v = fk_det_zd(a).value.value
        v_star = fk_det_zd(a.adjoint()).value.value
        assert math.isclose(v, v_star, rel_tol=1e-8)


def test_integral_matrices_meet_determinant_bound():
    rng = random.Random(113)
    for _ in range(25):
        a = rand_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        assert a.is_integral()
        assert fk_det_zd(a).value.value >= 1.0 - 1e-6


def test_one_variable_embedded_on_an_axis_keeps_its_value():
    one_var = fk_det_zd(mat([[LEHMER]])).value.value
    embedded = parse_polynomial(LEHMER).embed(2)
    two_var = fk_det_zd(GroupRingMatrix([[embedded]], rank=2)).value.value
    assert math.isclose(two_var, one_var, rel_tol=1e-6)
    flat = parse_polynomial("z - 2").embed(2)
    quad = fk_det_zd(
        GroupRingMatrix([[flat]], rank=2), "quadrature", grid_size=128
    ).value.value
    assert math.isclose(quad, 2.0, rel_tol=1e-6)


def test_trace_invariants_and_serialization():
    rng = random.Random(127)
    p = rand_poly(rng, 1)
    q = rand_poly(rng, 1)
    deficient = GroupRingMatrix([[p, q], [p, q], [p * 2, q * 2]], rank=1)
    inputs = [rand_matrix(rng, 3, 2) for _ in range(6)] + [
        rand_matrix(rng, 2, 2),
        rand_matrix(rng, 1, 3),
        deficient,
        deficient.adjoint(),
    ]
    routes = set()
    for a in inputs:
        trace = fk_det_zd(a)
        assert trace.side == ("matrix" if a.rows <= a.cols else "adjoint")
        s = a if trace.side == "matrix" else a.adjoint()
        assert trace.q == vn_dim_kernel_zd(a)
        if trace.route == "det":
            assert trace.D1 == s
            assert trace.detD1 == trace.D1.det()
        elif trace.route == "gram":
            assert trace.D1 == s @ s.adjoint()
            assert trace.detD1 == trace.D1.det()
        else:
            assert trace.route == "charpoly"
            assert trace.D1 == s @ s.adjoint()
            assert trace.D1.det().is_zero()
            # S's kernel dimension indexes the lowest nonzero coefficient
            low = trace.q - (a.rows - s.rows)
            assert low > 0
            assert trace.detD1 == charpoly_berkowitz(trace.D1.entries)[low]
        assert math.isclose(
            trace.value.value,
            math.sqrt(trace.detD1_measure.value) if trace.route != "det"
            else trace.detD1_measure.value,
            rel_tol=1e-15,
        )
        routes.add((trace.side, trace.route))
        blob = trace.as_json()
        assert set(blob) == {
            "matrix", "side", "route", "q", "D1", "detD1", "detD1_measure", "value"
        }
        assert matrix_from_json(blob["matrix"]) == a
        assert matrix_from_json(blob["D1"]) == trace.D1
        assert (blob["side"], blob["route"]) == (trace.side, trace.route)
        assert blob["q"] == trace.q
        assert blob["value"]["value"] == trace.value.value
    assert {("adjoint", "gram"), ("matrix", "det"), ("matrix", "gram")} <= routes
    assert {("matrix", "charpoly"), ("adjoint", "charpoly")} <= routes


def test_short_side_reduction_matches_the_kernel_reduction_on_a():
    rng = random.Random(131)
    shapes = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3))
    inputs = [
        rand_matrix(rng, r, c, rank)
        for rank in (1, 2)
        for r, c in shapes
        for _ in range(2)
    ]
    deficient = []
    for rank in (1, 2):
        row = [rand_poly(rng, rank) for _ in range(3)]
        other = [rand_poly(rng, rank) for _ in range(3)]
        deficient.append(GroupRingMatrix([row, other, row], rank=rank))
        zero = LaurentPolynomial.zero(rank)
        deficient.append(GroupRingMatrix([[p, zero] for p in row], rank=rank))
    assert all(vn_dim_kernel_zd(a) > 0 for a in deficient)
    for a in inputs + deficient:
        trace = fk_det_zd(a)
        got = trace.value
        assert trace.q == vn_dim_kernel_zd(a)
        want, want_error = kernel_reduction_on_a(a)
        assert abs(got.value - want) <= got.error_estimate + want_error, a
        if a.rows == a.cols and trace.q == 0:
            det = a.det()
            assert (a @ a.adjoint()).det() == det * det.adjoint()
            assert trace.route == "det" and trace.detD1 == det
    for a in deficient:
        assert fk_det_zd(a).route == "charpoly"


def minor_gram_sum(a, k):
    """Sum over the k x k minors of a of det a[I,J] * (det a[I,J])*: by
    Cauchy-Binet the k-th elementary symmetric function of the eigenvalues
    of aa* (and of a*a)."""
    total = LaurentPolynomial.zero(a.rank)
    for rows in itertools.combinations(range(a.rows), k):
        for cols in itertools.combinations(range(a.cols), k):
            sub = GroupRingMatrix(
                [[a.entries[i][j] for j in cols] for i in rows], rank=a.rank, cols=k
            )
            det = sub.det()
            total = total + det * det.adjoint()
    return total


def test_charpoly_route_measures_the_cauchy_binet_sum():
    rng = random.Random(137)
    inputs = []
    for rank in (1, 2):
        zero = LaurentPolynomial.zero(rank)
        for r, c in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
            # a product through k < min(r, c) columns has rank at most k
            for k in range(min(r, c)):
                left = rand_matrix(rng, r, k, rank) if k else GroupRingMatrix.zero(r, 0, rank)
                right = rand_matrix(rng, k, c, rank) if k else GroupRingMatrix.zero(0, c, rank)
                inputs.append(left @ right)
        row = [rand_poly(rng, rank) for _ in range(3)]
        inputs.append(GroupRingMatrix([row, [zero] * 3, row], rank=rank))
        inputs.append(GroupRingMatrix([[zero, p] for p in row], rank=rank))
        inputs.append(GroupRingMatrix.zero(3, 3, rank))
    for a in inputs:
        k = a.rows - vn_dim_kernel_zd(a)
        assert k < min(a.rows, a.cols), a
        trace = fk_det_zd(a)
        assert (trace.route, trace.q) == ("charpoly", a.rows - k), a
        assert trace.detD1 == minor_gram_sum(a, k) * (-1) ** k, a
        assert not trace.detD1.is_zero()
    # no rows or no columns: the empty product of eigenvalues, one empty
    # minor; a 2x0 matrix reduces its 0x2 adjoint and keeps both rows as
    # its kernel
    for rank in (1, 2):
        for empty in (GroupRingMatrix.zero(0, 2, rank), GroupRingMatrix.zero(2, 0, rank)):
            trace = fk_det_zd(empty)
            assert (trace.route, trace.q) == ("gram", empty.rows)
            assert trace.detD1 == minor_gram_sum(empty, 0) == LaurentPolynomial.one(rank)
            assert trace.value.value == 1.0


def test_matrix_json_round_trip_and_errors():
    a = mat([["z1 + z2", "3"], ["0", "z2^-2"]], rank=2)
    assert matrix_from_json(matrix_to_json(a)) == a
    empty = GroupRingMatrix.zero(0, 2, 1)
    assert matrix_from_json(matrix_to_json(empty)) == empty
    with pytest.raises(ValueError, match="needs"):
        matrix_from_json({"rank": 1, "rows": 1, "cols": 1})
    with pytest.raises(ValueError, match="entries"):
        matrix_from_json({"rank": 1, "rows": 2, "cols": 2, "entries": ["z"]})
    with pytest.raises(ValueError, match="rank"):
        matrix_from_json({"rank": 0, "rows": 1, "cols": 1, "entries": ["1"]})


def test_method_selection_and_validation():
    for method in ("newton", "boyd_lawton", "jensen"):
        with pytest.raises(ValueError, match="unknown measure method"):
            fk_det_zd(mat([["z"]]), method)
    # auto is jensen at every rank; det D1 = 2 + z1/z2 + z2/z1 is collinear
    got = fk_det_zd(mat([["z1 + z2"]], rank=2), "auto").value
    assert got.method == "jensen"
    assert got.value == 1.0
    trace = fk_det_zd(mat([["z - 2"]]), "quadrature")
    assert trace.value.method == "jensen"


def test_quadrature_method_on_two_variables():
    a = mat([["1 + z1 + z2"]], rank=2)
    trace = fk_det_zd(a, "quadrature", grid_size=256)
    assert trace.value.method == "quadrature"
    assert math.isclose(trace.value.value, TWO_VAR_MEASURE, rel_tol=2e-2)


def test_boyd_lawton_method_on_two_variables():
    # Boyd-Lawton is the reference for the measure routes, not one of them
    trace = fk_det_zd(mat([["1 + z1 + z2"]], rank=2))
    reference = mahler_boyd_lawton(trace.detD1)
    assert reference.method == "boyd_lawton"
    assert math.isclose(reference.value, TWO_VAR_MEASURE, rel_tol=2e-2)
    assert math.isclose(trace.value.value, reference.value, rel_tol=2e-2)


# ---------------------------------------------------------------------------
# schedules: the certified c-chain of each measured determinant


def test_schedule_for_constant_determinants():
    trace = fk_det_zd(GroupRingMatrix.zero(1, 1, 2))
    assert trace.detD1.is_one()
    assert default_bl_schedule(trace.detD1) == [(25,), (50,), (100,), (200,)]
    assert default_bl_schedule(trace.detD1, steps=4, base=1) == [(1,), (2,), (4,), (8,)]
    assert trace.value.value == 1.0
    reference = mahler_boyd_lawton(trace.detD1)
    assert reference.value == 1.0
    assert reference.method == "boyd_lawton"


def test_schedule_bounds_follow_the_support():
    # b = (2, 3), so c_1 = 4 and the smallest admissible k_2 is 5
    p = parse_polynomial("z1^2*z2^3 + z1^-2*z2^-3 + 1", rank=2)
    assert default_bl_schedule(p, steps=3, base=1) == [(5,), (10,), (20,)]
    assert default_bl_schedule(p, steps=3) == [(25,), (50,), (100,)]


def test_schedule_depth_three_chain():
    p = parse_polynomial("z1 + z2^2 + z3 + z1^-1 + z2^-1", rank=3)
    sched = default_bl_schedule(p, steps=4, base=1)
    # b = (1, 2, 1), so c = (2, 6)
    for k2, k3 in sched:
        assert k2 > 2
        assert k3 == 6 * k2 + 1
    assert [t[0] for t in sched] == [3, 6, 12, 24]


def test_schedule_rejects_rank_one_and_empty():
    with pytest.raises(ValueError, match="schedule"):
        default_bl_schedule(parse_polynomial("z - 2"))
    p = parse_polynomial("1 + z1 + z2")
    with pytest.raises(ValueError, match="empty"):
        mahler_boyd_lawton(p, default_bl_schedule(p, steps=0))


# ---------------------------------------------------------------------------
# determinants via specialization


def test_specialization_on_monomial_and_missing_variable():
    det_d1 = fk_det_zd(mat([["z1*z2"]], rank=2)).detD1
    got = mahler_boyd_lawton(det_d1)
    assert math.isclose(got.value, 1.0, rel_tol=1e-12)
    assert got.method == "boyd_lawton"

    det_d1 = fk_det_zd(mat([["z1 - 2"]], rank=2)).detD1
    got = mahler_boyd_lawton(det_d1)
    assert math.isclose(got.value, 2.0, rel_tol=1e-9)
    assert got.error_estimate < 1e-9


def test_specialization_approaches_the_quadrature_value():
    det_d1 = fk_det_zd(mat([["1 + z1 + z2"]], rank=2)).detD1
    got = mahler_boyd_lawton(det_d1)
    assert got.method == "boyd_lawton"
    oracle = math.exp(log_mahler_quadrature(parse_polynomial("1 + z1 + z2"), 512).log_value)
    assert math.isclose(got.value, oracle, rel_tol=2e-2)


def test_specialization_rejects_bad_schedules():
    det_d1 = fk_det_zd(mat([["1 + z1 + z2"]], rank=2)).detD1
    with pytest.raises(ValueError, match="empty"):
        mahler_boyd_lawton(det_d1, [])
    with pytest.raises(ValueError, match="must be positive"):
        mahler_boyd_lawton(det_d1, [(0,)])
    with pytest.raises(ValueError, match="expected 1"):
        mahler_boyd_lawton(det_d1, [(3, 5)])
    # det D1 = z1 - z2 collapses under z2 -> z1
    collapsing = fk_det_zd(mat([["z1 - z2"]], rank=2)).detD1
    with pytest.raises(ValueError, match="collapsed"):
        mahler_boyd_lawton(collapsing, [(1,)])


def test_boyd_lawton_refuses_over_the_degree_budget():
    # the column [p; 1] with p = 1 + z1 + z2 + z3 has det D1 = pp* + 1, which
    # specializes to degree 1602 at the last tuple
    det_d1 = fk_det_zd(mat([["1 + z1 + z2 + z3"], ["1"]], rank=3)).detD1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="degree 1602.*budget 1024"):
        mahler_boyd_lawton(det_d1)
    assert time.perf_counter() - start < 1.0


def test_auto_is_fibrewise_jensen_in_several_variables():
    trace = fk_det_zd(mat([["1 + z1 + z2 + z3"]], rank=3))
    assert trace.value.method == "jensen"
    assert trace.detD1_measure.method == "jensen"
    closed = math.exp(7 * 1.2020569031595943 / (2 * math.pi**2))
    assert abs(trace.value.value - closed) <= trace.value.error_estimate


def test_determinant_one_stays_exact_in_several_variables():
    # cyclotomic factors give det D1 roots on the unit circle in every
    # fibre; the collinear route, the gcd split and (for the last,
    # whose det D1 has neither) the unit band keep the value at 1
    for rows in (
        [["1 - z1*z2"]],
        [["1 - z2", "z1"], ["0", "1 - z1*z2"]],
        [["1 - z1*z2", "z1"], ["0", "1 - z1*z2^2"]],
    ):
        got = fk_det_zd(mat(rows, rank=2)).value
        assert got.method == "jensen"
        assert abs(got.value - 1.0) < 1e-12, rows


def test_estimate_covers_roots_clustering_on_the_circle():
    # det D1 = p has a root on the unit circle in every fibre, and near
    # z2 = -1 another root joins it; M(p) = M(2 + z1 + z2) = 2
    p = parse_polynomial("1 - z1*z2", rank=2) * parse_polynomial("2 + z1 + z2")
    got = fk_det_zd(GroupRingMatrix([[p]], rank=2)).value
    assert got.method == "jensen"
    assert abs(got.value - 2.0) <= got.error_estimate
