"""Exhaustive Lehmer-constant scans and the exact-value table."""

import functools
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fkdet import fk_finite, lehmer_scan
from fkdet.exact_linalg import det_batch, rank_det_exact
from fkdet.fk_finite import (
    RING_DET_MAX_SIDE,
    FiniteGroup,
    FiniteGroupRingElement,
    FiniteGroupRingMatrix,
    fk_det_kernel_finite,
    format_element,
    make_cyclic,
    make_cyclic_product,
    norm_det_batch,
    rep_getters,
    rep_value,
    ring_det_batch,
    takes_ring_det,
)
from fkdet.fk_zd import vn_dim_kernel_zd
from fkdet.laurent import format_polynomial, parse_polynomial
from fkdet.lehmer_scan import (
    DEFAULT_ONE_THRESHOLD,
    VECTOR_BLOCK,
    SearchSpace,
    _FiniteSpace,
    _LaurentSpace,
    _canonical_count,
    _vector_blocks,
    _vector_positions,
    _vectors,
    exact_constants,
    scan,
    survey_to_csv,
    torsion_bound_check,
    witness_value,
)
from fkdet.mahler import (
    SMYTH_THETA0,
    line_coeffs,
    mahler_jensen,
    mahler_measure,
)
from fkdet.values import FKValue, Radical

from helpers import (
    cyclotomic_product_oracle,
    face_bound,
    measure_bound_reference,
    orbit_greatest_reference,
    rand_poly,
    symmetric_group_3,
)

LEHMER = "z^10 + z^9 - z^7 - z^6 - z^5 - z^4 - z^3 + z + 1"
LEHMER_MEASURE = 1.176280818259917
# Lehmer's measure truncated: by Boyd-Lawton every measure above 1 over Z^d
# is a limit of one-variable ones, so no Z^d element scan may go below it
# unless Lehmer's conjecture fails
LEHMER_FLOOR = 1.1762808182599
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
SMYTH_TWO_VAR = 1.3813564445184977  # M(1 + z1 + z2)

KLEIN = FiniteGroup(
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], 0
)
S3 = symmetric_group_3()


def _s3_group_file():
    """S3 read from --group-file JSON, its elements listed in reverse
    lexicographic order so that the identity is the last of six."""
    perms = list(itertools.permutations(range(3)))[::-1]
    table = [
        [perms.index(tuple(a[b[i]] for i in range(3))) for b in perms]
        for a in perms
    ]
    return FiniteGroup.from_json({"identity": perms.index((0, 1, 2)), "table": table})


S3_FILE = _s3_group_file()
Z2xZ3 = make_cyclic_product((2, 3))


def zd_space(box, **kw):
    return SearchSpace(rank=len(box), box=tuple(box), **kw)


# ---------------------------------------------------------------------------
# spaces


def test_space_validation():
    with pytest.raises(ValueError, match="either"):
        SearchSpace(group=make_cyclic(2), rank=1, box=(2,))
    with pytest.raises(ValueError, match="rank"):
        SearchSpace(rank=2, box=(2,))
    with pytest.raises(ValueError, match="rank"):
        SearchSpace()
    with pytest.raises(ValueError, match="shape"):
        SearchSpace(group=make_cyclic(2), shape=(0, 1))
    with pytest.raises(ValueError, match="coefficient"):
        SearchSpace(group=make_cyclic(2), coeff_bound=0)
    with pytest.raises(ValueError, match="support"):
        SearchSpace(group=make_cyclic(2), support=0)
    with pytest.raises(ValueError, match="FiniteGroup"):
        SearchSpace(group="Z/2")


def test_space_counts():
    s = SearchSpace(group=make_cyclic(2), coeff_bound=2)
    assert s.positions() == 2
    assert s.raw_count() == 24
    m = SearchSpace(group=make_cyclic(3), shape=(2, 2), coeff_bound=1)
    assert m.positions() == 12
    assert m.raw_count() == 3**12 - 1
    sparse = zd_space((2, 2), coeff_bound=1, support=3)
    assert sparse.positions() == 9
    assert sparse.raw_count() == 18 + 144 + 672


def test_space_json():
    blob = zd_space((2,), coeff_bound=2, support=3).as_json()
    assert blob == {
        "ring": {"kind": "zd", "rank": 1, "box": [2]},
        "shape": [1, 1],
        "coeff_bound": 2,
        "support": 3,
    }
    blob = SearchSpace(group=make_cyclic(4), shape=(2, 1)).as_json()
    assert blob["ring"] == {"kind": "cyclic", "order": 4}
    assert blob["shape"] == [2, 1]


def test_scan_validation():
    space = SearchSpace(group=make_cyclic(2))
    with pytest.raises(ValueError, match="variant"):
        scan(space, "Lambda")
    with pytest.raises(ValueError, match="shape"):
        scan(SearchSpace(group=make_cyclic(2), shape=(2, 2)), "lambda_1")
    with pytest.raises(ValueError, match="budget"):
        scan(space, "lambda", budget=0)
    with pytest.raises(ValueError, match="enumeration cap"):
        scan(zd_space((25,), coeff_bound=2), "lambda_1")



@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1e-9])
def test_scan_refuses_a_one_threshold_that_is_not_finite_and_nonnegative(threshold):
    # nan compares false with every value, so it used to pass every candidate
    # as determinant one; inf did the same
    with pytest.raises(ValueError, match="one_threshold"):
        scan(SearchSpace(group=make_cyclic(3)), "lambda_1", one_threshold=threshold)
    with pytest.raises(ValueError, match="one_threshold"):
        scan(zd_space((4,)), "lambda_1", one_threshold=threshold)


def test_scan_accepts_a_zero_one_threshold():
    # over a finite group the exact radical decides determinant one, so a
    # zero threshold reports what the default one does
    report = scan(SearchSpace(group=make_cyclic(3)), "lambda_1", one_threshold=0.0)
    assert report.one_threshold == 0.0
    assert report.count_det_one == 1
    assert report.infimum_found.exact == Radical(2, Fraction(1, 3))
    assert report.witness["text"] == "t + 1"
    default = scan(SearchSpace(group=make_cyclic(3)), "lambda_1")
    assert (default.count_det_one, default.infimum_found, default.witness) == (
        report.count_det_one, report.infimum_found, report.witness
    )


# ---------------------------------------------------------------------------
# golden scans over finite groups


def test_trivial_group_weak_elements():
    report = scan(SearchSpace(group=make_cyclic(1), coeff_bound=3), "lambda_w_1")
    assert report.infimum_found.exact == Radical(2)
    assert report.witness == {"kind": "element", "text": "2", "coeffs": [2]}
    assert report.count_examined == 3
    assert report.count_det_one == 1
    assert report.budget_exceeded is False


def test_z2_weak_elements():
    space = SearchSpace(group=make_cyclic(2), coeff_bound=2)
    report = scan(space, "lambda_w_1")
    assert report.infimum_found.exact == Radical(3, Fraction(1, 2))
    assert report.witness == {"kind": "element", "text": "t + 2", "coeffs": [2, 1]}
    assert report.count_examined == 8
    assert report.count_det_one == 1
    # shape (1, 1) makes the general weak scan the same search
    assert scan(space, "lambda_w").infimum_found.exact == Radical(3, Fraction(1, 2))


def test_z2_plain_elements_reach_sqrt2():
    # without the injectivity gate the singular element 1 + t contributes
    # its Gram pseudo-determinant, which is smaller than every invertible one
    report = scan(SearchSpace(group=make_cyclic(2), coeff_bound=2), "lambda_1")
    assert report.infimum_found.exact == Radical(2, Fraction(1, 2))
    assert report.witness["text"] == "t + 1"
    assert report.count_examined == 8
    assert report.count_det_one == 1


def test_trivial_group_rectangular_matrices():
    report = scan(
        SearchSpace(group=make_cyclic(1), shape=(1, 2), coeff_bound=1), "lambda"
    )
    assert report.infimum_found.exact == Radical(2, Fraction(1, 2))
    assert report.witness["kind"] == "matrix"
    assert report.witness["entries"] == ["1", "1"]
    assert report.count_examined == 4
    assert report.count_det_one == 2


def test_z3_weak_scan_matches_exact_table():
    g = make_cyclic(3)
    report = scan(SearchSpace(group=g, coeff_bound=2), "lambda_w_1")
    assert report.infimum_found.exact == Radical(2, Fraction(1, 3))
    assert report.witness["text"] == "t + 1"
    assert exact_constants(g)["lambda_w_1"]["exact"] == report.infimum_found.exact


def test_scan_bounded_by_exact_table():
    # the scan is an upper bound for the true constant, and the space holds
    # the matrix [1, t] attaining the tabulated upper bound sqrt(2)
    g = make_cyclic(2)
    report = scan(SearchSpace(group=g, shape=(1, 2), coeff_bound=1), "lambda")
    bounds = exact_constants(g)["lambda"]
    assert report.infimum_found.value <= float(bounds["upper"]) + 1e-9
    assert report.infimum_found.value >= float(bounds["lower"]) - 1e-9


# ---------------------------------------------------------------------------
# golden scans over Z^d


def test_z_scan_finds_lehmer_polynomial(monkeypatch):
    calls = batches = 0
    evaluate_batch = _LaurentSpace.evaluate_batch

    def counted(self, vecs, one_threshold):
        nonlocal calls, batches
        calls += len(vecs)
        batches += 1
        return evaluate_batch(self, vecs, one_threshold)

    monkeypatch.setattr(_LaurentSpace, "evaluate_batch", counted)
    report = scan(zd_space((10,), coeff_bound=1), "lambda_1")
    # candidates bounded above the floor wait for the stream's final cutoff:
    # Smyth's constant bounds the 795 non-reciprocal ones above the
    # infimum, so none of them is measured (1 221 measures without holding);
    # and of the rest, each batch measures only those whose Graeffe bound
    # lies under the cutoff (426 measures without that filter)
    assert calls == 73
    # measured every MEASURE_CHUNK streamed candidates, and at the end: a
    # cutoff left stale longer lets held candidates pile up.  The first
    # measurement finds a value below Smyth's constant, so from the next block
    # on only reciprocal candidates stream: 4 655 of the 29 888
    assert batches == math.ceil(4655 / lehmer_scan.MEASURE_CHUNK)
    assert report.infimum_found.value == pytest.approx(LEHMER_MEASURE, abs=1e-9)
    assert report.infimum_found.value >= LEHMER_FLOOR
    assert parse_polynomial(report.witness["text"]) == parse_polynomial(LEHMER)
    assert report.count_examined == 29888
    assert report.count_det_one == 301
    assert report.budget_exceeded is False
    # the witness is measured again alone, through mahler_jensen: the batch
    # gives the same bits
    again = witness_value(report.space, report.witness)
    assert again.value == report.infimum_found.value


def test_z_scan_keeps_the_smyth_tie():
    # z^3 - z - 1 and its relatives attain Smyth's constant exactly; the
    # lower bound must not rule them out, so the earliest one stays witness
    space = zd_space((3,), coeff_bound=1)
    report = scan(space, "lambda_1")
    assert report.witness["text"] == "1 - z^2 + z^3"
    assert report.infimum_found.value == pytest.approx(SMYTH_THETA0, rel=1e-15)
    # the float bound of a tie candidate stays below its computed measure
    exact_one, bound = _LaurentSpace(space).screen((-1, -1, 0, 1))
    assert not exact_one
    assert bound < report.infimum_found.value


def _scan_and_context(monkeypatch, space, variant, **options):
    """The report of a scan and the enumeration context it ran in."""
    contexts = []
    make = lehmer_scan._context
    monkeypatch.setattr(
        lehmer_scan, "_context", lambda s: contexts.append(make(s)) or contexts[-1]
    )
    report = scan(space, variant, **options)
    monkeypatch.setattr(lehmer_scan, "_context", make)
    return report, contexts[0]


@pytest.mark.parametrize(
    "space, variant, switches",
    [
        (zd_space((11,)), "lambda_1", True),
        (zd_space((12,)), "lambda_1", True),
        (zd_space((8,), coeff_bound=2), "lambda_1", True),
        (zd_space((10,)), "lambda_w_1", True),
        (zd_space((16,), support=5), "lambda_1", True),
        # trinomials attain Smyth's constant (1 - z^26 + z^39 is the witness)
        # and come no lower, so this scan never switches
        (zd_space((40,), support=3), "lambda_1", False),
    ],
    ids=["box11", "box12", "box8-c2", "box10-w1", "box16-s5", "box40-s3"],
)
def test_reciprocal_first_stream_reports_what_the_full_stream_does(
    monkeypatch, space, variant, switches
):
    # the report is that of the full stream, which a cutoff of 0 keeps on
    report, ctx = _scan_and_context(monkeypatch, space, variant)
    assert ctx.reciprocal_only == switches
    assert (report.infimum_found.value < SMYTH_THETA0 * (1 - 1e-9)) == switches
    monkeypatch.setattr(lehmer_scan, "RECIPROCAL_CUTOFF", 0.0)
    full, full_ctx = _scan_and_context(monkeypatch, space, variant)
    assert not full_ctx.reciprocal_only
    assert json.dumps(report.as_json()) == json.dumps(full.as_json())


@pytest.mark.parametrize(
    "space, options",
    [
        # the survey floor 1.5 lies above Smyth's constant
        (zd_space((8,)), {"survey": True}),
        # so does a floor 1 + 0.4
        (zd_space((9,)), {"one_threshold": 0.4}),
        # the 29 888 canonical candidates exceed the budget
        (zd_space((10,)), {"budget": 5000}),
        (zd_space((10,)), {"budget": 29887}),
    ],
    ids=["survey", "threshold", "budget-stopped", "budget-short"],
)
def test_reciprocal_first_stream_does_not_switch(monkeypatch, space, options):
    report, ctx = _scan_and_context(monkeypatch, space, "lambda_1", **options)
    assert not ctx.reciprocal_only
    monkeypatch.setattr(lehmer_scan, "RECIPROCAL_CUTOFF", 0.0)
    full, _ = _scan_and_context(monkeypatch, space, "lambda_1", **options)
    assert json.dumps(report.as_json()) == json.dumps(full.as_json())


def test_budget_at_the_canonical_bound_switches(monkeypatch):
    # box 10 holds 29 888 canonical candidates, so this budget cannot stop
    # the scan and the stream may switch
    space = zd_space((10,))
    report, ctx = _scan_and_context(monkeypatch, space, "lambda_1", budget=29888)
    assert ctx.reciprocal_only
    assert not report.budget_exceeded
    assert report.count_examined == 29888


def _with_and_without_graeffe(monkeypatch, space, variant, **options):
    """The report of a scan as JSON text and the sizes of its measured
    batches, once as it runs and once with every Graeffe bound 0, which
    drops nothing."""
    reports, batches = [], []
    evaluate_batch = _LaurentSpace.evaluate_batch

    def counted(self, vecs, one_threshold):
        batches[-1].append(len(vecs))
        return evaluate_batch(self, vecs, one_threshold)

    monkeypatch.setattr(_LaurentSpace, "evaluate_batch", counted)
    for bounds in (lehmer_scan.graeffe_bounds, lambda lines: np.zeros(len(lines))):
        monkeypatch.setattr(lehmer_scan, "graeffe_bounds", bounds)
        batches.append([])
        reports.append(json.dumps(scan(space, variant, **options).as_json()))
    return list(zip(reports, batches))


@pytest.mark.parametrize(
    "space, variant, options, filtered",
    [
        *[(zd_space((b,)), "lambda_1", {}, True) for b in range(8, 13)],
        (zd_space((8,), coeff_bound=2), "lambda_1", {}, True),
        (zd_space((10,)), "lambda_w_1", {}, True),
        (zd_space((8,)), "lambda_1", {"survey": True}, True),
        (zd_space((10,)), "lambda_1", {"one_threshold": 0.4}, True),
        (zd_space((10,)), "lambda_1", {"budget": 5000}, True),
        (zd_space((16,), support=5), "lambda_1", {}, True),
        # ties at Smyth's constant and measures nothing until the held
        # batch, whose cutoff is still infinite: the filter drops nothing
        (zd_space((40,), support=3), "lambda_1", {}, False),
    ],
    ids=[
        *[f"box{b}" for b in range(8, 13)],
        "box8-c2", "box10-w1", "survey", "threshold", "budget", "box16-s5", "box40-s3",
    ],
)
def test_graeffe_filter_leaves_the_report_as_it_was(
    monkeypatch, space, variant, options, filtered
):
    (report, batches), (unfiltered, all_batches) = _with_and_without_graeffe(
        monkeypatch, space, variant, **options
    )
    assert report == unfiltered
    measured, unfiltered_measured = sum(batches), sum(all_batches)
    assert measured < unfiltered_measured if filtered else measured == unfiltered_measured


def test_graeffe_filter_trims_the_held_batch(monkeypatch):
    # box 6 holds the candidates its line bounds put above the floor until
    # the stream ends, and measures them in one batch after the last flush
    (report, batches), (unfiltered, all_batches) = _with_and_without_graeffe(
        monkeypatch, zd_space((6,)), "lambda_1"
    )
    assert report == unfiltered
    assert (batches, all_batches) == ([16, 108], [16, 325])


def _reciprocal_up_to_sign(vec):
    c = list(vec[: max(i for i, x in enumerate(vec) if x) + 1])
    return c[::-1] in (c, [-x for x in c])


@pytest.mark.parametrize(
    "space",
    [zd_space((8,)), zd_space((8,), coeff_bound=2), zd_space((16,), support=5)],
    ids=["box8", "box8-c2", "box16-s5"],
)
def test_reciprocal_stream_is_the_reciprocal_subset_of_the_canonical_one(space):
    # box 8's orbit representatives come from the brute force; it would take
    # minutes on the other two, so their reference is the unswitched stream,
    # which the brute force pins on smaller spaces
    if space == zd_space((8,)):
        canonical = _orbit_representatives(space)
    else:
        canonical = list(_LaurentSpace(space).stream())
    reciprocal = [v for v in canonical if _reciprocal_up_to_sign(v)]
    ctx = _LaurentSpace(space)
    ctx.reciprocal_only = True
    assert list(ctx.stream()) == reciprocal
    # the screens memo holds the streamed rows only
    assert set(ctx.screens) == set(reciprocal)
    # switched while the first block streams: its canonical rows, then the
    # reciprocal ones after it
    ctx = _LaurentSpace(space)
    stream = ctx.stream()
    first = next(stream)
    ctx.reciprocal_only = True
    blocks = _vector_blocks(space.positions(), space.coeff_bound, space.support)
    block = set(map(tuple, next(blocks).tolist()))
    want = [v for v in canonical if v in block]
    want += [v for v in reciprocal if v not in block]
    assert [first, *stream] == want


def _orbit_mask_count(space):
    ctx = _LaurentSpace(space)
    args = (space.positions(), space.coeff_bound, space.support)
    return sum(int(ctx._orbit_mask(block).sum()) for block in _vector_blocks(*args))


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_canonical_count_is_the_orbit_mask_count(bound):
    # Burnside's count against the mask on every box 0..12 and support cap
    # 1..6 (or none) whose raw space holds at most 2 million vectors
    seen = 0
    for box in range(13):
        for support in [None, *range(1, 7)]:
            space = zd_space((box,), coeff_bound=bound, support=support)
            if space.raw_count() <= 2 * 10**6:
                assert _canonical_count(space) == _orbit_mask_count(space), space
                seen += 1
    assert seen >= 40


@pytest.mark.parametrize(
    "positions, bound", [(p, b) for p in range(1, 7) for b in (1, 2, 3)] + [(2, 128)]
)
def test_vector_positions_are_the_enumeration_indices(positions, bound):
    for support in [None, *range(1, positions)]:
        rows = np.array(list(_vectors(positions, bound, support)))
        want = np.arange(len(rows))
        assert (_vector_positions(rows, bound, support) == want).all(), support


def _orbit_representatives(space):
    """The vectors of a Z^d space that are the greatest member of their
    orbit, found from every image under sign, monomial shifts and (square
    shapes) the adjoint that stays in the box; in the scan's enumeration
    order: descending, or graded by support under a support cap."""
    return list(_orbit_tuple(space))


@functools.cache
def _orbit_tuple(space):
    """_orbit_representatives, enumerated once per space: box 8 takes about
    0.6 s and several tests ask for it."""
    rank, box = space.rank, space.box
    rows, cols = space.shape
    exps = list(itertools.product(*[range(b + 1) for b in box]))
    block = len(exps)
    index = {e: t for t, e in enumerate(exps)}
    p, c = space.positions(), space.coeff_bound
    graded = space.support is not None and space.support < p
    if graded:
        candidates = []
        for j in range(1, space.support + 1):
            for where in itertools.combinations(range(p), j):
                for values in itertools.product(range(-c, c + 1), repeat=j):
                    if all(values):
                        vec = [0] * p
                        for i, x in zip(where, values):
                            vec[i] = x
                        candidates.append(tuple(vec))
    else:
        candidates = itertools.product(range(c, -c - 1, -1), repeat=p)
    reps = []
    for vec in candidates:
        support = [i for i, x in enumerate(vec) if x]
        if not support:
            continue
        terms = {
            (i // block // cols, i // block % cols, exps[i % block]): vec[i]
            for i in support
        }
        forms = [terms]
        if rows == cols:
            forms.append(
                {(j, i, tuple(-x for x in e)): v for (i, j, e), v in terms.items()}
            )
        orbit = []
        for form in forms:
            lo = [min(e[a] for _, _, e in form) for a in range(rank)]
            hi = [max(e[a] for _, _, e in form) for a in range(rank)]
            for shift in itertools.product(
                *[range(-lo[a], box[a] - hi[a] + 1) for a in range(rank)]
            ):
                image = [0] * p
                for (i, j, e), v in form.items():
                    t = index[tuple(x + y for x, y in zip(e, shift))]
                    image[(i * cols + j) * block + t] = v
                orbit += [tuple(image), tuple(-x for x in image)]
        if vec == max(orbit):
            reps.append(vec)
    if graded:
        values = list(range(c, 0, -1)) + list(range(-1, -c - 1, -1))
        rank_of = {v: k for k, v in enumerate(values)}
        reps.sort(
            key=lambda v: (
                sum(1 for x in v if x),
                tuple(i for i, x in enumerate(v) if x),
                tuple(rank_of[x] for x in v if x),
            )
        )
    return tuple(reps)


def _brute_force(space, survey=False, limit=None):
    """Every orbit representative, or the first ``limit`` of them, through
    the float measure and the float rule."""
    ctx = _LaurentSpace(space)
    examined = det_one = 0
    best = None
    rows = []
    for vec in _orbit_representatives(space)[:limit]:
        p = ctx.matrix(vec).entries[0][0]
        examined += 1
        if p.rank == 1:
            value = mahler_jensen(p).value
        else:
            pts = sorted(p.terms)
            collinear = all(
                (b[0] - pts[0][0]) * (c[1] - pts[0][1])
                == (b[1] - pts[0][1]) * (c[0] - pts[0][0])
                for b in pts
                for c in pts
            )
            if collinear:
                # M(q(z^m)) = M(q) for m != 0
                value = mahler_jensen(p.specialize((7,))).value
            else:
                value = mahler_measure(p).value
        if value < 1 + 1e-9:
            det_one += 1
            continue
        text = format_polynomial(p)
        if survey and value <= 1.5:
            rows.append((text, value))
        if best is None or value < best[0]:
            best = (value, text)
    return examined, det_one, best, rows


@pytest.mark.parametrize(
    "space, survey",
    [(zd_space((b,), coeff_bound=1), False) for b in range(8)]
    + [
        (zd_space((3,), coeff_bound=2), False),
        (zd_space((2, 2), coeff_bound=1, support=3), False),
        (zd_space((6,), coeff_bound=1), True),
        # the infimum drops below Smyth's constant while non-reciprocal
        # candidates still make survey rows
        (zd_space((8,), coeff_bound=1, support=5), True),
        # held candidates are ruled out once the stream has lowered the
        # cutoff below their bounds
        (zd_space((8,), coeff_bound=1), False),
        (zd_space((8,), coeff_bound=1, support=5), False),
    ],
)
def test_scan_matches_brute_force(space, survey):
    report = scan(space, "lambda_1", survey=survey)
    examined, det_one, best, rows = _brute_force(space, survey)
    assert report.count_examined == examined
    assert report.count_det_one == det_one
    if best is None:
        assert report.infimum_found is None
    else:
        assert report.infimum_found.value == best[0]
        assert report.witness["text"] == best[1]
    if survey:
        assert list(report.survey) == rows


def test_budget_drains_held_candidates():
    # the partial report still measures the held candidates whose bound is
    # under the cutoff the first 1 000 representatives reached
    space = zd_space((8,), coeff_bound=1)
    report = scan(space, "lambda_1", budget=1000)
    examined, det_one, best, _ = _brute_force(space, limit=1000)
    assert report.budget_exceeded is True
    assert (report.count_examined, report.count_det_one) == (examined, det_one)
    assert report.infimum_found.value == best[0]
    assert report.witness["text"] == best[1]


def test_held_candidate_keeps_the_tie(monkeypatch):
    # every candidate measures 2 and only the first is held back: measured
    # last, it still wins the tie as the earliest in enumeration order
    space = zd_space((2,), coeff_bound=1)
    ctx = _LaurentSpace(space)
    first = next(ctx.stream())
    monkeypatch.setattr(
        _LaurentSpace, "screen", lambda self, vec: (False, 2.0 if vec == first else 1.0)
    )
    monkeypatch.setattr(
        _LaurentSpace,
        "evaluate_batch",
        lambda self, vecs, t: [(FKValue(2.0, "jensen", 0.0), False)] * len(vecs),
    )
    report = scan(space, "lambda_1")
    assert report.count_examined > 1
    assert report.witness["text"] == format_polynomial(ctx.matrix(first).entries[0][0])


@pytest.mark.parametrize(
    "space",
    [
        zd_space((12,), coeff_bound=1, support=4),
        zd_space((8,), coeff_bound=2, support=4),
        zd_space((20,), coeff_bound=1, support=3),
    ],
    ids=["box12-support4", "box8-bound2", "box20-support3"],
)
def test_held_candidates_measured_in_one_batch(monkeypatch, space):
    # the held candidates of a Z element scan go to evaluate_batch in one
    # call after the stream, and the report is byte for byte that of the
    # one-at-a-time walk, which measures each held candidate in a call of
    # its own
    sizes = []
    evaluate_batch = _LaurentSpace.evaluate_batch

    def counted(self, vecs, one_threshold):
        sizes.append(len(vecs))
        return evaluate_batch(self, vecs, one_threshold)

    monkeypatch.setattr(_LaurentSpace, "evaluate_batch", counted)
    batched = scan(space, "lambda_1")
    calls, held = len(sizes), sizes[-1]

    def one_at_a_time(space):
        ctx = _LaurentSpace(space)
        ctx.batched = False
        return ctx

    sizes.clear()
    monkeypatch.setattr(lehmer_scan, "_context", one_at_a_time)
    walked = scan(space, "lambda_1")
    assert json.dumps(batched.as_json()) == json.dumps(walked.as_json())
    assert held > 1 and len(sizes) > calls


class _ReferenceLaurentFilter:
    """The original Z^d canonicality tests, kept as the reference for the
    stream's sequence: a per-axis minimum over the support, an entry-by-entry
    reversal and negated tuples."""

    def __init__(self, space):
        self.space = space
        self.rank = space.rank
        self.rows, self.cols = space.shape
        self.exps = list(itertools.product(*[range(b + 1) for b in space.box]))
        self.block = len(self.exps)
        self.strides = [0] * self.rank
        acc = 1
        for a in range(self.rank - 1, -1, -1):
            self.strides[a] = acc
            acc *= space.box[a] + 1

    def stream(self):
        space = self.space
        for vec in _vectors(space.positions(), space.coeff_bound, space.support):
            support = [i for i, x in enumerate(vec) if x]
            if not self._is_shifted_down(support):
                continue
            if self._is_canonical(vec, support):
                yield vec

    def _is_shifted_down(self, support):
        for a in range(self.rank):
            if min(self.exps[i % self.block][a] for i in support) != 0:
                return False
        return True

    def _reverse(self, vec, support):
        if self.rows != self.cols:
            return None
        top = [
            max(self.exps[i % self.block][a] for i in support)
            for a in range(self.rank)
        ]
        out = [0] * len(vec)
        for i in support:
            entry, t = divmod(i, self.block)
            ei, ej = divmod(entry, self.cols)
            e = self.exps[t]
            dest_t = sum(
                (top[a] - e[a]) * self.strides[a] for a in range(self.rank)
            )
            out[(ej * self.cols + ei) * self.block + dest_t] = vec[i]
        return tuple(out)

    def _is_canonical(self, vec, support):
        if _neg(vec) > vec:
            return False
        rev = self._reverse(vec, support)
        if rev is not None and (rev > vec or _neg(rev) > vec):
            return False
        return True


class _ReferenceFiniteFilter:
    """The original finite-group canonicality test: every left translation,
    the identity included, and its adjoint, built entry by entry."""

    def __init__(self, space):
        self.space = space
        group, n = space.group, space.group.order
        rows, cols = space.shape
        p = space.positions()
        self.translations = []
        for g in range(n):
            dest = [0] * p
            for idx in range(p):
                e, h = divmod(idx, n)
                dest[idx] = e * n + group.table[g][h]
            self.translations.append(tuple(dest))
        self.adjoint_src = None
        if rows == cols:
            src = [0] * p
            for i in range(rows):
                for j in range(cols):
                    for h in range(n):
                        src[(i * cols + j) * n + h] = (
                            j * cols + i
                        ) * n + group.inverses[h]
            self.adjoint_src = tuple(src)

    def stream(self):
        space = self.space
        for vec in _vectors(space.positions(), space.coeff_bound, space.support):
            if self._is_canonical(vec):
                yield vec

    def _is_canonical(self, vec):
        p = len(vec)
        for dest in self.translations:
            t = [0] * p
            for idx in range(p):
                t[dest[idx]] = vec[idx]
            t = tuple(t)
            if t > vec or _neg(t) > vec:
                return False
            if self.adjoint_src is not None:
                a = tuple(t[s] for s in self.adjoint_src)
                if a > vec or _neg(a) > vec:
                    return False
        return True


def _neg(vec):
    return tuple(-x for x in vec)


@pytest.mark.parametrize(
    "space",
    [zd_space((b,), coeff_bound=1) for b in range(9)]
    + [zd_space((b,), coeff_bound=2) for b in (1, 3, 5)]
    + [zd_space((b,), coeff_bound=3) for b in (2, 3)]
    + [
        zd_space((8,), coeff_bound=1, support=2),
        zd_space((8,), coeff_bound=1, support=3),
        zd_space((5,), coeff_bound=2, support=3),
        zd_space((2, 2), coeff_bound=1),
        zd_space((1, 3), coeff_bound=1),
        zd_space((3, 1), coeff_bound=1),
        zd_space((2, 0), coeff_bound=2),
        zd_space((2, 1, 1), coeff_bound=1, support=3),
        zd_space((1, 1, 1), coeff_bound=1),
        zd_space((1,), shape=(2, 2), coeff_bound=1),
        zd_space((2,), shape=(1, 2), coeff_bound=1),
        zd_space((2,), shape=(2, 1), coeff_bound=1),
        zd_space((1, 1), shape=(2, 2), coeff_bound=1, support=3),
        zd_space((2, 1), shape=(2, 2), coeff_bound=1, support=3),
        zd_space((2, 1), shape=(1, 2), coeff_bound=1, support=3),
        zd_space((1, 2), shape=(2, 1), coeff_bound=1, support=3),
        zd_space((1,), shape=(3, 3), coeff_bound=1, support=2),
        # coefficients past the int8 blocks, a rank-3 square matrix, and
        # 36 positions of three digits, keyed in two words
        zd_space((1,), coeff_bound=128),
        zd_space((1, 1, 1), shape=(2, 2), coeff_bound=1, support=3),
        zd_space((8,), shape=(2, 2), coeff_bound=1, support=3),
    ],
    ids=lambda s: "box%s-%dx%d-c%d-s%s" % (
        ",".join(map(str, s.box)), *s.shape, s.coeff_bound, s.support
    ),
)
def test_laurent_stream_matches_reference_filter(space):
    # same vectors in the same order, so counts and tie-broken witnesses
    # cannot move
    assert list(_LaurentSpace(space).stream()) == list(
        _ReferenceLaurentFilter(space).stream()
    )


@pytest.mark.parametrize(
    "space",
    [
        SearchSpace(group=make_cyclic(1), coeff_bound=3),
        SearchSpace(group=make_cyclic(2), coeff_bound=2),
        SearchSpace(group=make_cyclic(4), coeff_bound=2),
        SearchSpace(group=KLEIN, coeff_bound=2),
        SearchSpace(group=make_cyclic(3), shape=(1, 2), coeff_bound=1),
        SearchSpace(group=make_cyclic(2), shape=(2, 2), coeff_bound=1),
        SearchSpace(group=KLEIN, shape=(2, 2), coeff_bound=1, support=3),
        SearchSpace(group=make_cyclic(3), shape=(2, 1), coeff_bound=2, support=2),
        # a non-abelian table group whose identity is not element 0, a
        # product group, and square, wide and tall shapes of both
        pytest.param(SearchSpace(group=S3_FILE, coeff_bound=2), id="S3file-1x1-c2"),
        pytest.param(
            SearchSpace(group=S3_FILE, shape=(2, 2), coeff_bound=1, support=2),
            id="S3file-2x2-c1-s2",
        ),
        pytest.param(
            SearchSpace(group=S3_FILE, shape=(1, 2), coeff_bound=1, support=3),
            id="S3file-1x2-c1-s3",
        ),
        pytest.param(
            SearchSpace(group=S3_FILE, shape=(2, 1), coeff_bound=2, support=2),
            id="S3file-2x1-c2-s2",
        ),
        pytest.param(SearchSpace(group=Z2xZ3, coeff_bound=2), id="Z2xZ3-1x1-c2"),
        pytest.param(
            SearchSpace(group=Z2xZ3, shape=(2, 2), coeff_bound=1, support=3),
            id="Z2xZ3-2x2-c1-s3",
        ),
        pytest.param(
            SearchSpace(group=Z2xZ3, shape=(1, 2), coeff_bound=1, support=4),
            id="Z2xZ3-1x2-c1-s4",
        ),
        pytest.param(
            SearchSpace(group=Z2xZ3, shape=(2, 1), coeff_bound=1, support=3),
            id="Z2xZ3-2x1-c1-s3",
        ),
        pytest.param(
            SearchSpace(group=make_cyclic(2), shape=(3, 3), coeff_bound=1, support=2),
            id="order2-3x3-c1-s2",
        ),
        # coefficients past the int8 blocks
        pytest.param(
            SearchSpace(group=make_cyclic(2), coeff_bound=128), id="order2-1x1-c128"
        ),
    ],
    ids=lambda s: "order%d-%dx%d-c%d-s%s" % (
        s.group.order, *s.shape, s.coeff_bound, s.support
    ),
)
def test_finite_stream_matches_reference_filter(space):
    assert list(_FiniteSpace(space).stream()) == list(
        _ReferenceFiniteFilter(space).stream()
    )


@pytest.mark.parametrize(
    "space",
    [
        zd_space((1,), shape=(2, 2), coeff_bound=1),
        zd_space((1, 1), shape=(2, 2), coeff_bound=1, support=3),
        zd_space((2, 1), shape=(2, 2), coeff_bound=1, support=2),
        zd_space((1, 1), shape=(1, 2), coeff_bound=1, support=3),
        zd_space((2, 1), coeff_bound=1),
    ],
)
def test_matrix_stream_is_orbit_greatest(space):
    assert list(_LaurentSpace(space).stream()) == _orbit_representatives(space)


@pytest.mark.parametrize(
    "space, variant, raw",
    [
        (zd_space((10,), coeff_bound=1), "lambda_1", 177146),
        (
            SearchSpace(
                group=make_cyclic(3), shape=(2, 2), coeff_bound=1, support=6
            ),
            "lambda_w",
            94448,
        ),
        (zd_space((1, 1), shape=(2, 2), coeff_bound=1, support=3), "lambda_w", 4992),
    ],
    ids=["box10", "Z3-2x2-support6", "box1,1-2x2-support3"],
)
def test_scan_draws_every_raw_vector_once(monkeypatch, space, variant, raw):
    drawn = 0
    enumerate_raw = lehmer_scan._vectors

    def counted(*args):
        nonlocal drawn
        for vec in enumerate_raw(*args):
            drawn += 1
            yield vec

    monkeypatch.setattr(lehmer_scan, "_vectors", counted)
    scan(space, variant)
    assert drawn == space.raw_count() == raw


@pytest.mark.parametrize(
    "space, variant",
    [
        (
            SearchSpace(group=make_cyclic_product((2, 2, 2, 2)), coeff_bound=1),
            "lambda_w_1",
        ),
        # 14 348 906 raw vectors
        (zd_space((14,), coeff_bound=1), "lambda_1"),
    ],
    ids=["Z2^4", "box14"],
)
def test_budget_stopped_scan_draws_a_prefix(monkeypatch, space, variant):
    # the stream takes a block's orbit mask only when it reaches the block,
    # so a scan stopped by its budget draws a short prefix of the raw space
    drawn = blocks = 0
    enumerate_raw = lehmer_scan._vectors
    enumerate_blocks = lehmer_scan._vector_blocks

    def counted(*args):
        nonlocal drawn
        for vec in enumerate_raw(*args):
            drawn += 1
            yield vec

    def counted_blocks(*args):
        nonlocal blocks
        for block in enumerate_blocks(*args):
            blocks += 1
            yield block

    monkeypatch.setattr(lehmer_scan, "_vectors", counted)
    monkeypatch.setattr(lehmer_scan, "_vector_blocks", counted_blocks)
    report = scan(space, variant, budget=200)
    assert report.budget_exceeded
    assert 0 < drawn < space.raw_count() // 100
    assert blocks <= drawn // VECTOR_BLOCK + 1


@pytest.mark.parametrize(
    "positions, bound, supports",
    # every support cap, the uncapped box included (support None, and a cap
    # of all positions, which takes the same branch)
    [(p, b, [None, *range(1, p + 1)]) for p in range(1, 6) for b in (1, 2, 3)]
    + [
        # the last bound in int8 blocks and the first in int64 ones, with
        # and without a cap
        (2, 127, [None, 1]),
        (2, 128, [None, 1]),
        (3, 128, [2]),
        # the zero vector is row 39 062 of the box, past the first block
        (7, 2, [None]),
        # 6**5 value rows per five-term pattern, more than one block holds
        (6, 3, [5]),
    ],
    ids=lambda v: "s" + ",".join(map(str, v)) if isinstance(v, list) else str(v),
)
def test_vector_blocks_mirror_the_enumeration(positions, bound, supports):
    for support in supports:
        rows = []
        for block in _vector_blocks(positions, bound, support):
            assert 0 < len(block) <= VECTOR_BLOCK
            rows.extend(map(tuple, block.tolist()))
        assert rows == list(_vectors(positions, bound, support)), support


def test_z_scan_degree_two_golden_ratio():
    report = scan(zd_space((2,), coeff_bound=1, support=3), "lambda_1")
    assert report.infimum_found.value == pytest.approx(GOLDEN_RATIO, abs=1e-9)
    assert report.witness["text"] == "1 + z - z^2"


def test_element_scans_agree_over_zd():
    # every nonzero element of Q[Z^d] is injective, so the plain and weak
    # element scans examine identical candidates and agree report for report
    space = zd_space((6,), coeff_bound=1)
    plain = scan(space, "lambda_1").as_json()
    weak = scan(space, "lambda_w_1").as_json()
    assert plain.pop("variant") == "lambda_1"
    assert weak.pop("variant") == "lambda_w_1"
    assert plain == weak


def test_z2_scan_and_subgroup_monotonicity():
    two = scan(zd_space((2, 2), coeff_bound=1, support=3), "lambda_1")
    one = scan(zd_space((2,), coeff_bound=1, support=3), "lambda_1")
    assert two.infimum_found.value == pytest.approx(
        SMYTH_TWO_VAR, abs=two.infimum_found.error_estimate
    )
    assert one.infimum_found.value == pytest.approx(GOLDEN_RATIO, abs=1e-9)
    # a bigger group admits every candidate of its subgroup's scan
    assert two.infimum_found.value <= one.infimum_found.value + 1e-9
    # the two-variable witness is a genuinely non-collinear three-term sum
    w = parse_polynomial(two.witness["text"], rank=2)
    assert len(w.terms) == 3


@pytest.mark.parametrize(
    "factors",
    [
        ("1 + z1 + z1^2", "1 - z2"),
        ("1 + z1", "1 - z2"),
        ("1 - z1*z2", "1 + z1"),
        ("1 + z1 + z1^2", "1 + z2"),
        ("1 - z1*z2^2", "1 - z1"),
        ("1 + z1*z2", "1 - z1*z2^-1"),
    ],
)
def test_generalized_cyclotomic_products_have_determinant_one(factors):
    # by Kronecker's theorem in several variables (Boyd 1981) a product of
    # cyclotomic polynomials in monomials has Mahler measure exactly 1
    a, b = (parse_polynomial(f, rank=2) for f in factors)
    text = format_polynomial(a * b)
    value = witness_value(
        zd_space((4, 4)), {"kind": "element", "rank": 2, "text": text}
    )
    assert value.value == 1.0


def _specializes_to_cyclotomic(vec, ctx):
    """Whether z2 -> z^25 and z2 -> z^50 both give +-z^k times cyclotomic
    polynomials: a reference for determinant one that computes no Mahler
    measure, where the scan measures every non-collinear candidate."""
    p = ctx.matrix(vec).entries[0][0]
    for k in (25, 50):
        terms = p.specialize((k,)).terms
        low = min(e for (e,) in terms)
        coeffs = [0] * (max(e for (e,) in terms) - low + 1)
        for (e,), c in terms.items():
            coeffs[e - low] = int(c)
        if not cyclotomic_product_oracle(coeffs):
            return False
    return True


@pytest.mark.parametrize(
    "space, examined, det_one",
    [(zd_space((2, 1)), 178, 37), (zd_space((2, 2), support=3), 125, 33)],
    ids=["box2,1", "box2,2-s3"],
)
def test_z2_scan_counts_every_generalized_cyclotomic(space, examined, det_one):
    report = scan(space, "lambda_1")
    ctx = _LaurentSpace(space)
    reps = _orbit_representatives(space)
    reference = sum(_specializes_to_cyclotomic(vec, ctx) for vec in reps)
    assert (report.count_examined, report.count_det_one) == (examined, det_one)
    assert (len(reps), reference) == (examined, det_one)
    assert report.witness["text"] == "1 + z2 + z1^2"
    assert report.infimum_found.method == "jensen"
    assert report.infimum_found.value == pytest.approx(
        SMYTH_TWO_VAR, abs=report.infimum_found.error_estimate
    )
    assert report.infimum_found.value >= LEHMER_FLOOR


@pytest.mark.parametrize(
    "space", [zd_space((2, 1)), zd_space((2, 2), support=3)], ids=["box2,1", "box2,2-s3"]
)
def test_screen_bound_stays_under_the_measure(space):
    ctx = _LaurentSpace(space)
    faces = 0
    for vec in ctx.stream():
        exact_one, bound = ctx.screen(vec)
        if exact_one:
            continue
        m = ctx.matrix(vec)
        value, _ = ctx.evaluate(vec, DEFAULT_ONE_THRESHOLD)
        assert bound <= value.value - value.error_estimate
        faces += line_coeffs(m.entries[0][0].terms) is None
    assert faces > 0


@pytest.mark.parametrize("rank", [2, 3])
def test_face_bound_stays_under_the_measure(rank):
    # the generator of acceptance criterion 8, through the scan's screen
    ctx = _LaurentSpace(zd_space((1,) * rank, coeff_bound=2))
    rng = random.Random(80 + rank)
    seen = faces = 0
    while seen < 100:
        p = rand_poly(rng, rank, max_exp=1)
        if p.is_zero():
            continue
        seen += 1
        exact_one, bound = ctx.screen(tuple(int(p.coefficient(e)) for e in ctx.exps))
        if exact_one:
            continue
        value = mahler_measure(p)
        assert bound <= value.value - value.error_estimate
        faces += line_coeffs(p.terms) is None
    assert faces > 0


def _screen_reference(ctx, vec):
    """The exact screen of one element row by row: its line (collinear
    support) gets the scalar measure bound and, at bound 1, the
    trial-division oracle; any other element its face bound."""
    terms = {ctx.exps[i]: c for i, c in enumerate(vec) if c}
    line = line_coeffs(terms)
    if line is None:
        return False, face_bound(terms) * lehmer_scan._FACE_SLACK
    bound = measure_bound_reference(line)
    if bound == 1.0 and cyclotomic_product_oracle(line):
        return True, 1.0
    return False, bound * lehmer_scan._BOUND_SLACK


@pytest.mark.parametrize(
    "space, bound_one, det_one",
    [
        (zd_space((10,)), 727, 301),
        (zd_space((6,), coeff_bound=2), 249, 107),
        (zd_space((2, 2), support=4), 33, 33),
    ],
    ids=["box10", "box6-c2", "box2,2-s4"],
)
def test_block_screen_matches_the_per_row_reference(space, bound_one, det_one):
    # the stream screens each block of canonical rows at once into
    # ctx.screens; every canonical row is there, with the pair the per-row
    # screen gives it.  Rows of bound 1 are the ones the cyclotomic test
    # decides.
    ctx = _LaurentSpace(space)
    ones = exact = faces = 0
    for vec in ctx.stream():
        assert vec in ctx.screens
        pair = ctx.screen(vec)
        assert pair == _screen_reference(ctx, vec), vec
        ones += pair[0] or pair[1] == lehmer_scan._BOUND_SLACK
        exact += pair[0]
        if space.rank > 1:
            faces += line_coeffs(ctx.matrix(vec).entries[0][0].terms) is None
    assert ctx.screens == {}
    assert (ones, exact) == (bound_one, det_one)
    # box 2,2 has non-collinear elements, which take the face bound
    assert bool(faces) == (space.rank > 1)


def test_one_row_screen_of_a_degree_60_line():
    # an element the stream did not put in ctx.screens is screened as a
    # block of one row
    ctx = _LaurentSpace(zd_space((60,), coeff_bound=2, support=3))
    for terms in (
        {0: 1, 30: -2, 60: 1},  # (z^30 - 1)^2
        {0: 1, 30: 2, 60: 1},  # (z^30 + 1)^2
        {0: 1, 30: 2, 60: -1},
        {0: 1, 29: 2, 60: 1},
        {0: 2, 60: 1},
    ):
        vec = tuple(terms.get(e, 0) for e in range(61))
        assert ctx.screen(vec) == _screen_reference(ctx, vec), terms


def test_wide_support_capped_scan_holds_little_memory():
    # the cyclotomic test of a degree-100 line builds the map's rows at the
    # line's terms only, in chunks; a table over the whole width took over
    # 100 MB.  Trial division peaked at 2.0 MB traced on this scan, the
    # block screen at 2.6 MB.  Its report is pinned by
    # test_scan_reports_match_their_goldens.
    tracemalloc.start()
    try:
        report = scan(zd_space((100,), support=2), "lambda_1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.count_det_one == report.count_examined == 201
    assert peak < 6 * 2**20


def test_z3_element_scan_measures_by_fibrewise_jensen():
    report = scan(zd_space((1, 1, 1), support=3), "lambda_1")
    assert report.infimum_found.method == "jensen"
    assert report.infimum_found.value == pytest.approx(
        SMYTH_TWO_VAR, abs=report.infimum_found.error_estimate
    )
    assert report.infimum_found.value >= LEHMER_FLOOR
    assert len(parse_polynomial(report.witness["text"], rank=3).terms) == 3


def test_zd_element_path_raises_the_jensen_refusal():
    # four outer variables: fibrewise Jensen refuses rather than integrate
    # over a grid it was not sized for, and the scan's element path passes
    # the refusal on
    witness = {"kind": "element", "rank": 5, "text": "1 + z1*z2*z3 + z4*z5"}
    with pytest.raises(ValueError, match="at most 3 outer variables"):
        witness_value(zd_space((1, 1, 1, 1, 1)), witness)


def _finite_brute_force(space, variant, survey=False):
    """Every orbit representative of the reference filter, built as a group
    ring matrix and measured by fk_det_kernel_finite under the scan's rules:
    the weak variants drop non-injective candidates, a value under
    1 + DEFAULT_ONE_THRESHOLD is determinant one, ties keep the first."""
    group, n = space.group, space.group.order
    rows, cols = space.shape
    examined = det_one = 0
    best = None
    survey_rows = []
    for vec in _ReferenceFiniteFilter(space).stream():
        m = FiniteGroupRingMatrix(
            group,
            [
                [
                    FiniteGroupRingElement(
                        group, vec[(i * cols + j) * n : (i * cols + j + 1) * n]
                    )
                    for j in range(cols)
                ]
                for i in range(rows)
            ],
        )
        examined += 1
        value, kernel = fk_det_kernel_finite(m)
        if variant in ("lambda_w", "lambda_w_1") and kernel != 0:
            continue
        if value.value < 1 + DEFAULT_ONE_THRESHOLD:
            det_one += 1
            continue
        texts = [format_element(x) for row in m.entries for x in row]
        if survey and value.value <= 1.5:
            text = texts[0] if (rows, cols) == (1, 1) else "[%s]" % "; ".join(
                ", ".join(texts[i * cols : (i + 1) * cols]) for i in range(rows)
            )
            survey_rows.append((text, value.value))
        if best is None or value.value < best[0].value:
            coeffs = [list(x.coeffs) for row in m.entries for x in row]
            best = (value, texts, coeffs)
    return examined, det_one, best, survey_rows


@pytest.mark.parametrize(
    "space, variant, survey",
    [
        (
            SearchSpace(group=make_cyclic(3), shape=(2, 2), coeff_bound=1, support=4),
            "lambda_w",
            False,
        ),
        # singular candidates measured through the Gram route
        (SearchSpace(group=make_cyclic(2), shape=(2, 2), coeff_bound=1), "lambda", True),
        (SearchSpace(group=KLEIN, shape=(2, 2), coeff_bound=1, support=3), "lambda", True),
        # every injective candidate here is a unit: no infimum
        (SearchSpace(group=KLEIN, shape=(2, 2), coeff_bound=1, support=3), "lambda_w", False),
        # one row over a cyclic group: the cyclic_norm route
        (SearchSpace(group=make_cyclic(3), shape=(1, 2), coeff_bound=1), "lambda_w", False),
        (SearchSpace(group=make_cyclic(3), shape=(1, 2), coeff_bound=1), "lambda", True),
        (SearchSpace(group=S3, coeff_bound=1), "lambda", True),
        (SearchSpace(group=S3, coeff_bound=2, support=3), "lambda_w_1", True),
    ],
    ids=[
        "Z3-2x2-s4-w",
        "Z2-2x2",
        "klein-2x2-s3",
        "klein-2x2-s3-w",
        "Z3-1x2-w",
        "Z3-1x2",
        "S3-elements",
        "S3-elements-c2-s3-w",
    ],
)
def test_finite_scan_matches_brute_force(space, variant, survey):
    report = scan(space, variant, survey=survey)
    examined, det_one, best, rows = _finite_brute_force(space, variant, survey)
    assert (report.count_examined, report.count_det_one) == (examined, det_one)
    if best is None:
        assert (report.infimum_found, report.witness) == (None, None)
        return
    value, texts, coeffs = best
    assert report.infimum_found == value
    if space.shape == (1, 1):
        assert report.witness["text"] == texts[0]
        assert report.witness["coeffs"] == coeffs[0]
    else:
        assert report.witness["entries"] == texts
        assert report.witness["coeffs"] == coeffs
    if survey:
        assert list(report.survey) == rows
        assert rows


@pytest.mark.parametrize(
    "space",
    [
        zd_space((1,), shape=(2, 2), coeff_bound=1),
        zd_space((1, 1), shape=(2, 2), coeff_bound=1, support=3),
    ],
)
def test_square_injectivity_agrees_with_the_kernel(space):
    # a square candidate is injective exactly when its determinant is nonzero
    ctx = _LaurentSpace(space)
    for vec in ctx.stream():
        m = ctx.matrix(vec)
        assert ctx.injective(vec) == (vn_dim_kernel_zd(m) == 0)


@pytest.mark.parametrize(
    "space",
    [
        SearchSpace(group=make_cyclic(2), shape=(2, 2), coeff_bound=1),
        SearchSpace(group=KLEIN, shape=(2, 2), coeff_bound=1, support=3),
        SearchSpace(group=KLEIN, coeff_bound=2),
        SearchSpace(group=make_cyclic(3), shape=(2, 2), coeff_bound=1, support=6),
        SearchSpace(group=S3, shape=(2, 2), coeff_bound=1, support=3),
    ],
    ids=["Z2-2x2", "klein-2x2-s3", "klein-1x1", "Z3-2x2-s6", "S3-2x2-s3"],
)
def test_square_stream_determinants_match_the_elimination(space):
    # the batched determinant of every canonical candidate, read off the
    # chunk the stream is in, against one exact elimination of its regular
    # representation
    ctx = _FiniteSpace(space)
    assert ctx.rep_index is not None
    zeros = 0
    for vec in ctx.stream():
        want = rank_det_exact([get(vec) for get in ctx.getters])[1]
        assert ctx.dets[vec] == (rep_value(want, ctx.n, None) if want else 0)
        zeros += want == 0
    assert zeros


@pytest.mark.parametrize(
    "space",
    [
        SearchSpace(group=make_cyclic(3), shape=(1, 2), coeff_bound=1),
        SearchSpace(group=make_cyclic(3), shape=(2, 1), coeff_bound=2, support=2),
        SearchSpace(group=make_cyclic(4), coeff_bound=2),
    ],
    ids=["Z3-1x2", "Z3-2x1", "Z4-1x1"],
)
def test_other_finite_shapes_are_not_batched(space):
    # non-square shapes, and one row or column over Z/n (cyclic_norm)
    ctx = _FiniteSpace(space)
    assert ctx.rep_index is None
    assert list(ctx.stream()) and ctx.dets == {}


def test_square_scans_read_their_determinants_from_the_memo(monkeypatch):
    # injective and evaluate read the determinant the stream put in dets:
    # a weak scan over several chunks eliminates nothing, and a plain scan
    # eliminates only its singular candidates (Gram route), which dets
    # holds as 0
    seen = []
    det_kernel = _FiniteSpace._det_kernel

    def counted(self, vec, singular_det):
        seen.append(vec)
        return det_kernel(self, vec, singular_det)

    monkeypatch.setattr(_FiniteSpace, "_det_kernel", counted)
    space = SearchSpace(group=make_cyclic(3), shape=(2, 2), coeff_bound=1, support=6)
    report = scan(space, "lambda_w")
    assert report.count_examined > 2 * lehmer_scan.MEASURE_CHUNK
    assert seen == []
    space = SearchSpace(group=make_cyclic(2), shape=(2, 2), coeff_bound=1)
    scan(space, "lambda")
    ctx = _FiniteSpace(space)
    singular = [vec for vec in ctx.stream() if ctx.dets[vec] == 0]
    assert seen and seen == singular


@pytest.mark.parametrize(
    "space, variant",
    [
        # a 4x4 representation, whose determinants used to come 2 304 at a time
        (SearchSpace(group=make_cyclic(2), shape=(2, 2), coeff_bound=2), "lambda"),
        (SearchSpace(group=make_cyclic(3), shape=(2, 2), support=6), "lambda_w"),
        (SearchSpace(group=S3, shape=(2, 2), support=4), "lambda_w"),
    ],
    ids=["Z2-2x2-c2", "Z3-2x2-s6", "S3-2x2-s4"],
)
def test_square_memo_holds_one_chunk(monkeypatch, space, variant):
    # the stream takes MEASURE_CHUNK determinants at a time, and the scan
    # measures them before the next chunk comes
    sizes = []

    class Memo(dict):
        def update(self, pairs):
            super().update(pairs)
            sizes.append(len(self))

    init = _FiniteSpace.__init__

    def recording(self, space):
        init(self, space)
        self.dets = Memo()

    monkeypatch.setattr(_FiniteSpace, "__init__", recording)
    scan(space, variant, budget=5000)
    assert len(sizes) > 1
    assert max(sizes) <= lehmer_scan.MEASURE_CHUNK


def test_finite_memo_takes_each_determinant_once(monkeypatch):
    # a weak scan on the cyclic_norm route: injective puts each determinant
    # in dets, the batch measured every MEASURE_CHUNK streamed candidates
    # takes it from there, and nothing is left when the scan ends
    calls = {}
    admitted = 0
    ctx = None
    det_kernel = _FiniteSpace._det_kernel

    def counted(self, vec, singular_det):
        nonlocal admitted, ctx
        ctx = self
        calls[vec] = calls.get(vec, 0) + 1
        det, kernel = det_kernel(self, vec, singular_det)
        admitted += kernel == 0
        return det, kernel

    monkeypatch.setattr(_FiniteSpace, "_det_kernel", counted)
    space = SearchSpace(group=make_cyclic(5), shape=(1, 2), coeff_bound=1)
    report = scan(space, "lambda_w")
    assert admitted > lehmer_scan.MEASURE_CHUNK
    assert len(calls) == report.count_examined
    assert set(calls.values()) == {1}
    assert ctx.dets == {}


def test_non_square_weak_scan_eliminates_each_candidate_once(monkeypatch):
    # injective eliminates the 6x12 representation of each candidate; the
    # injective ones go from there straight to the Gram route, with no
    # second elimination in evaluate.  The report is pinned by
    # test_scan_reports_match_their_goldens.
    eliminations = {False: 0, True: 0}
    grams = 0
    det_kernel = _FiniteSpace._det_kernel
    gram_rep_value = lehmer_scan.gram_rep_value

    def counted(self, vec, singular_det):
        eliminations[singular_det] += 1
        return det_kernel(self, vec, singular_det)

    def counted_gram(*args):
        nonlocal grams
        grams += 1
        return gram_rep_value(*args)

    monkeypatch.setattr(_FiniteSpace, "_det_kernel", counted)
    monkeypatch.setattr(lehmer_scan, "gram_rep_value", counted_gram)
    space = SearchSpace(group=S3, shape=(1, 2), support=4)
    report = scan(space, "lambda_w")
    assert report.count_examined == 868
    assert (eliminations[False], eliminations[True], grams) == (868, 0, 648)


def test_plain_square_scan_keeps_its_singular_candidates():
    # lambda admits the singular candidates, which take the Gram route; the
    # report of this scan is pinned by test_scan_reports_match_their_goldens
    space = SearchSpace(group=make_cyclic(2), shape=(2, 2), coeff_bound=1)
    ctx = _FiniteSpace(space)
    singular = [vec for vec in ctx.stream() if ctx.dets[vec] == 0]
    assert singular
    for vec in singular[:20]:
        value, _ = ctx.evaluate(vec, DEFAULT_ONE_THRESHOLD)
        assert value == fk_det_kernel_finite(ctx.matrix(vec))[0]


# the "result" of each lehmer-scan report below, byte for byte as the
# command writes it (sorted keys, two-space indent); over the Z/4 table the
# entries are written in powers of t
GOLDEN_REPORTS = json.loads(
    (Path(__file__).parent / "data" / "scan_reports.json").read_text(encoding="utf-8")
)
Z4_FILE = FiniteGroup.from_json(
    {"identity": 0, "table": [[(a + b) % 4 for b in range(4)] for a in range(4)]}
)
GOLDEN_SCANS = [
    (
        "box1-2x2-s4-w-survey",
        zd_space((1,), shape=(2, 2), support=4),
        "lambda_w",
        {"survey": True},
    ),
    ("Z3-1x2-w", SearchSpace(group=make_cyclic(3), shape=(1, 2)), "lambda_w", {}),
    (
        "Z3-2x1-c2-s2",
        SearchSpace(group=make_cyclic(3), shape=(2, 1), coeff_bound=2, support=2),
        "lambda",
        {},
    ),
    ("Z2-2x2", SearchSpace(group=make_cyclic(2), shape=(2, 2)), "lambda", {}),
    ("box2,1-survey", zd_space((2, 1)), "lambda_1", {"survey": True}),
    ("Z5-c2", SearchSpace(group=make_cyclic(5), coeff_bound=2), "lambda_1", {}),
    (
        "Z4-file-2x2-s4-w",
        SearchSpace(group=Z4_FILE, shape=(2, 2), support=4),
        "lambda_w",
        {},
    ),
    # the element scans over Z that the block screen decides
    ("box10", zd_space((10,)), "lambda_1", {}),
    ("box8-w1-survey", zd_space((8,)), "lambda_w_1", {"survey": True}),
    ("box6-c2", zd_space((6,), coeff_bound=2), "lambda_1", {}),
    ("box12-s6", zd_space((12,), support=6), "lambda_1", {}),
    ("box10-b5000", zd_space((10,)), "lambda_1", {"budget": 5000}),
    # a wide support-capped box: 201 cyclotomic lines up to degree 100
    ("box100-s2", zd_space((100,), support=2), "lambda_1", {}),
    # a non-square regular_rep shape, whose weak scan takes the Gram route
    (
        "S3-1x2-s4-w",
        SearchSpace(group=S3, shape=(1, 2), support=4),
        "lambda_w",
        {},
    ),
    # the benchmark's finite scan, whose determinants are norms over ZG
    (
        "Z3-2x2-s6-w",
        SearchSpace(group=make_cyclic(3), shape=(2, 2), support=6),
        "lambda_w",
        {},
    ),
    # a non-abelian square space, which keeps the kn x kn representation
    (
        "S3-2x2-s3-w",
        SearchSpace(group=S3, shape=(2, 2), support=3),
        "lambda_w",
        {},
    ),
]


@pytest.mark.parametrize(
    "name, space, variant, options", GOLDEN_SCANS, ids=[c[0] for c in GOLDEN_SCANS]
)
def test_scan_reports_match_their_goldens(name, space, variant, options):
    report = scan(space, variant, **options)
    text = json.dumps(report.as_json(), sort_keys=True, indent=2)
    assert text == json.dumps(GOLDEN_REPORTS[name], sort_keys=True, indent=2)


ABELIAN_TABLES = [make_cyclic(n) for n in range(2, 7)] + [
    make_cyclic_product(m) for m in ((2, 2), (2, 4), (3, 3))
] + [KLEIN, Z4_FILE]
ABELIAN_IDS = ["Z%d" % n for n in range(2, 7)] + [
    "Z2xZ2", "Z2xZ4", "Z3xZ3", "klein", "Z4-file"
]


def _leibniz(vec, group, side):
    """The determinant over ZG of an entry-major side x side matrix, one
    permutation at a time in FiniteGroupRingElement arithmetic."""
    n = group.order

    def entry(i, j):
        start = (i * side + j) * n
        return FiniteGroupRingElement(group, vec[start : start + n])

    total = FiniteGroupRingElement.zero(group)
    for perm in itertools.permutations(range(side)):
        term = FiniteGroupRingElement.unit(group)
        for i, j in enumerate(perm):
            term = term * entry(i, j)
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return list(total.coeffs)


@pytest.mark.parametrize("side", [2, 3])
@pytest.mark.parametrize("group", ABELIAN_TABLES, ids=ABELIAN_IDS)
def test_ring_determinant_norms_are_the_representation_determinants(group, side):
    # over a commutative ZG the kn x kn representation's determinant is the
    # norm of the determinant over ZG, sign included
    n = group.order
    p = side * side * n
    rng = np.random.default_rng(side * 100 + n)
    vecs = rng.integers(-2, 3, size=(30, p))
    sparse = vecs * (rng.random((30, p)) < 0.3)
    # singular ones: the first two rows of the matrix equal
    singular = vecs.copy()
    singular[:, side * n : 2 * side * n] = singular[:, : side * n]
    vecs = np.concatenate([vecs, sparse, singular])
    ids = tuple(range(p))
    gather = np.array([get(ids) for get in rep_getters(group, side, side)])
    assert takes_ring_det(group, side, 2)
    dets = norm_det_batch(vecs, group, side)
    assert dets == det_batch(vecs[:, gather])
    assert dets[-len(singular) :] == [0] * len(singular)
    rows = ring_det_batch(vecs, group, side).tolist()
    assert rows == [_leibniz(v, group, side) for v in vecs.tolist()]


@pytest.mark.parametrize("bound, eliminated", [(2, False), (10**5, True)])
def test_norm_determinants_past_int64_take_det_batch(monkeypatch, bound, eliminated):
    # the 2 x 2 representations of determinants over Z/2 take the expansion
    # over Z while their minors fit in int64, and det_batch past that
    group = make_cyclic(2)
    vecs = np.random.default_rng(bound).integers(-bound, bound + 1, size=(20, 8))
    gather = np.array([get(tuple(range(8))) for get in rep_getters(group, 2, 2)])
    calls = []

    def counted(mats):
        calls.append(len(mats))
        return det_batch(mats)

    monkeypatch.setattr(fk_finite, "det_batch", counted)
    assert norm_det_batch(vecs, group, 2) == det_batch(vecs[:, gather])
    assert calls == ([20] if eliminated else [])


def test_ring_determinant_route_needs_a_small_commutative_side():
    # S3 keeps the kn x kn representation, as do sides past
    # RING_DET_MAX_SIDE and coefficients past int64
    assert not takes_ring_det(S3, 2, 1)
    assert takes_ring_det(make_cyclic(2), RING_DET_MAX_SIDE, 1)
    assert not takes_ring_det(make_cyclic(2), RING_DET_MAX_SIDE + 1, 1)
    assert takes_ring_det(make_cyclic(50), 2, 10**7)
    assert not takes_ring_det(make_cyclic(50), 2, 10**8)
    ctx = _FiniteSpace(SearchSpace(group=S3, shape=(2, 2), support=3))
    assert ctx.rep_index is not None and not ctx.ring_det
    ctx = _FiniteSpace(SearchSpace(group=make_cyclic(3), shape=(2, 2), support=6))
    assert ctx.rep_index is not None and ctx.ring_det
    # the 1 x 1 shape over a table that is not Z/n takes the route too
    assert _FiniteSpace(SearchSpace(group=KLEIN)).ring_det


@pytest.mark.parametrize(
    "space, words",
    [
        (SearchSpace(group=make_cyclic(3), shape=(2, 2)), 1),
        # 24 positions of five digits: words of 23 and 1
        (SearchSpace(group=S3, shape=(2, 2), coeff_bound=2), 2),
        (SearchSpace(group=make_cyclic(4), shape=(1, 2), coeff_bound=3), 1),
        (SearchSpace(group=Z4_FILE, shape=(2, 1), coeff_bound=2), 1),
        # p = 36 positions of three digits: words of 34 and 2 positions
        (SearchSpace(group=make_cyclic(9), shape=(2, 2)), 2),
        (SearchSpace(group=make_cyclic(9), shape=(2, 2), coeff_bound=2), 2),
        (SearchSpace(group=make_cyclic(25), shape=(2, 2)), 3),
        # over Z^d: int8 rows, and int64 rows past the int8 blocks, whose
        # 257 or 401 digits make words of 6 positions
        (zd_space((5,), coeff_bound=1), 1),
        (zd_space((10,), coeff_bound=128), 2),
        (zd_space((8,), shape=(2, 2), coeff_bound=1), 2),
        (zd_space((1,), shape=(2, 2), coeff_bound=200), 2),
        (zd_space((1, 1), shape=(2, 2), coeff_bound=2), 1),
        (zd_space((2, 1), shape=(1, 2), coeff_bound=1), 1),
    ],
    ids=[
        "Z3-2x2", "S3-2x2-c2", "Z4-1x2-c3", "Z4-file-2x1-c2", "Z9-2x2", "Z9-2x2-c2",
        "Z25-2x2", "box5", "box10-c128", "box8-2x2", "box1-2x2-c200",
        "box1,1-2x2-c2", "box2,1-1x2",
    ],
)
def test_key_mask_is_the_reference_mask(monkeypatch, space, words):
    # a small KEY_ROWS makes every block cross several key matmuls
    monkeypatch.setattr(lehmer_scan, "KEY_ROWS", 128)
    ctx = lehmer_scan._context(space)
    assert ctx.key_weights.shape[1] == words
    b, p = space.coeff_bound, space.positions()
    dtype = np.int8 if b <= np.iinfo(np.int8).max else np.int64
    rng = np.random.default_rng(p)
    block = rng.integers(-b, b + 1, size=(300, p)).astype(dtype)
    # sparse rows, which often tie with their images
    block[100:200] *= (rng.random((100, p)) < 0.1).astype(dtype)
    fixed = np.ones((2, p), dtype=dtype)
    fixed[1] = 0
    if space.group is not None:
        images = np.concatenate([block[:, idx] for idx in ctx.images])
        orbits = np.concatenate([block, -block, images, -images])
        # the greatest member of each row's orbit, and rows fixed by every image
        greatest = np.array([
            max(tuple(o) for o in orbits[i :: len(block)].tolist())
            for i in range(len(block))
        ], dtype=dtype)
        block = np.concatenate([block, images, greatest, fixed, -fixed])
        want = orbit_greatest_reference(block, [block[:, idx] for idx in ctx.images])
    else:
        ref = _ReferenceLaurentFilter(space)

        def adjoints(rows):
            # each row's shifted-down adjoint, entry by entry
            out = []
            for vec in rows.tolist():
                support = [i for i, x in enumerate(vec) if x]
                out.append(ref._reverse(tuple(vec), support) if support else vec)
            return np.array(out, dtype=dtype)

        if ctx.adjoint is not None:
            # the adjoints and their negatives tie with the rows they came from
            block = np.concatenate([block, adjoints(block), -adjoints(block)])
        block = np.concatenate([block, fixed, -fixed])
        images = [adjoints(block)] if ctx.adjoint is not None else []
        want = orbit_greatest_reference(block, images, space.box)
    assert want.any() and not want.all()
    assert (ctx._canonical_mask(block) == want).all()


def test_zd_matrix_scan():
    space = zd_space((1,), shape=(2, 2), coeff_bound=1, support=4)
    report = scan(space, "lambda_w")
    assert report.infimum_found.value == pytest.approx(2.0, abs=1e-9)
    assert report.witness["kind"] == "matrix"
    again = witness_value(space, report.witness)
    assert abs(again.value - report.infimum_found.value) <= 1e-9
    # singular candidates were gated out before evaluation
    assert report.count_examined > report.count_det_one


@pytest.mark.parametrize(
    "order, shape, support, examined, det_one, base, exponent, entries",
    [
        (3, (2, 2), 4, 879, 244, 2, Fraction(1, 3), ["t + 1", "0", "0", "1"]),
        # wide 3x6 regular representations go through the rank gate
        (3, (1, 2), None, 124, 2, 2, Fraction(1, 3), ["t + 1", "0"]),
        (2, (2, 2), None, 952, 192, 3, Fraction(1, 2), ["t + 1", "1", "1", "t + 1"]),
    ],
    ids=["Z3-2x2-support4", "Z3-1x2", "Z2-2x2"],
)
def test_weak_finite_matrix_scans(
    order, shape, support, examined, det_one, base, exponent, entries
):
    space = SearchSpace(
        group=make_cyclic(order), shape=shape, coeff_bound=1, support=support
    )
    report = scan(space, "lambda_w")
    assert report.count_examined == examined
    assert report.count_det_one == det_one
    assert report.infimum_found.exact == Radical(base, exponent)
    assert report.witness["kind"] == "matrix"
    assert report.witness["entries"] == entries
    assert report.budget_exceeded is False
    assert witness_value(space, report.witness).exact == report.infimum_found.exact


def test_report_invariants_across_spaces():
    cases = [
        (SearchSpace(group=make_cyclic(2), coeff_bound=2), "lambda"),
        (SearchSpace(group=make_cyclic(3), coeff_bound=1), "lambda_w"),
        (zd_space((4,), coeff_bound=1), "lambda_w_1"),
    ]
    for space, variant in cases:
        report = scan(space, variant)
        assert report.infimum_found.value > 1 + report.one_threshold
        again = witness_value(space, report.witness)
        assert abs(again.value - report.infimum_found.value) <= 1e-9


def test_empty_qualifying_set():
    report = scan(SearchSpace(group=make_cyclic(1), coeff_bound=1), "lambda_w_1")
    assert report.infimum_found is None
    assert report.witness is None
    assert report.count_examined == 1
    assert report.count_det_one == 1


def test_budget_exceeded_partial_report():
    report = scan(SearchSpace(group=make_cyclic(2), coeff_bound=2), "lambda_1", budget=2)
    assert report.budget_exceeded is True
    assert report.count_examined == 2
    # the first two canonical candidates are 2 + 2t and t + 2
    assert report.infimum_found.exact == Radical(3, Fraction(1, 2))


def test_scan_determinism():
    space = SearchSpace(group=make_cyclic(2), coeff_bound=2)
    assert scan(space, "lambda_1").as_json() == scan(space, "lambda_1").as_json()
    zspace = zd_space((4,), coeff_bound=1)
    assert scan(zspace, "lambda_1").as_json() == scan(zspace, "lambda_1").as_json()


def test_survey_rows_and_csv():
    report = scan(
        SearchSpace(group=make_cyclic(3), coeff_bound=3), "lambda_1", survey=True
    )
    assert report.survey
    values = [v for _, v in report.survey]
    assert all(1 < v <= 1.5 for v in values)
    assert min(values) == report.infimum_found.value
    assert any(text == "t + 1" for text, _ in report.survey)
    csv = survey_to_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "witness,value"
    assert len(lines) == len(report.survey) + 1
    assert lines[1].startswith('"')


def test_report_json_shape():
    report = scan(SearchSpace(group=make_cyclic(2), coeff_bound=1), "lambda_1")
    blob = report.as_json()
    assert blob["space"]["ring"] == {"kind": "cyclic", "order": 2}
    assert blob["variant"] == "lambda_1"
    assert set(blob) == {
        "space",
        "variant",
        "infimum_found",
        "witness",
        "count_examined",
        "count_det_one",
        "one_threshold",
        "budget",
        "budget_exceeded",
    }
    with_survey = scan(
        SearchSpace(group=make_cyclic(2), coeff_bound=1), "lambda_1", survey=True
    ).as_json()
    assert "survey" in with_survey


# ---------------------------------------------------------------------------
# exact constants and torsion bounds


def test_exact_constants_trivial():
    table = exact_constants(make_cyclic(1))
    assert table["lambda"]["exact"] == Radical(2, Fraction(1, 2))
    for variant in ("lambda_1", "lambda_w", "lambda_w_1"):
        assert table[variant]["exact"] == Radical(2)


def test_exact_constants_z2():
    table = exact_constants(make_cyclic(2))
    assert table["lambda"] == {
        "lower": Radical(2, Fraction(1, 4)),
        "upper": Radical(2, Fraction(1, 2)),
    }
    assert table["lambda_1"]["exact"] == Radical(2, Fraction(1, 2))
    assert table["lambda_w"]["exact"] == Radical(3, Fraction(1, 2))
    assert table["lambda_w_1"]["exact"] == Radical(3, Fraction(1, 2))


def test_exact_constants_odd_cyclic():
    table = exact_constants(make_cyclic(5))
    assert table["lambda_w"]["exact"] == Radical(2, Fraction(1, 5))
    assert table["lambda_w_1"]["exact"] == Radical(2, Fraction(1, 5))
    assert table["lambda"]["lower"] == Radical(2, Fraction(1, 10))
    assert table["lambda"]["upper"] == Radical(4, Fraction(1, 5))


def test_exact_constants_general_finite():
    for g in (make_cyclic(4), KLEIN):
        table = exact_constants(g)
        assert set(table) == {"lambda", "lambda_w"}
        assert table["lambda_w"] == {
            "lower": Radical(2, Fraction(1, 4)),
            "upper": Radical(3, Fraction(1, 4)),
        }
        assert table["lambda"]["lower"] == Radical(2, Fraction(1, 8))
    with pytest.raises(ValueError, match="finite"):
        exact_constants("zd")


def test_torsion_bound():
    assert torsion_bound_check(3) == pytest.approx(2 ** (1 / 3))
    assert torsion_bound_check(10) == pytest.approx(9**0.1)
    with pytest.raises(ValueError):
        torsion_bound_check(2)
    # (m - 1)^(1/m) peaks at m = 5 and then decays toward 1
    values = [torsion_bound_check(m) for m in range(5, 1001)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert max(values) == values[0] == pytest.approx(4**0.2)
    assert values[-1] > 1
    assert values[-1] < 1.01
