"""Acceptance gate: ten checks, each printing one pass/fail line.

Every check pins a golden value, a property batch, or a reproduction at a
stated tolerance, and each carries its own wall-clock budget.  Run with
-s (or read failure output) to see the lines.
"""

import json
import random
import time
from fractions import Fraction

from fkdet.approx import chain_range, det_sequence
from fkdet.cli import main
from fkdet.exact_linalg import det_exact
from fkdet.fk_finite import (
    FiniteGroupRingElement,
    FiniteGroupRingMatrix,
    fk_det_finite,
    induce,
    make_cyclic,
    norm_element,
    parse_element,
    regular_rep,
    restrict,
    vn_dim_kernel_finite,
)
from fkdet.fk_zd import fk_det_zd
from fkdet.laurent import GroupRingMatrix, parse_polynomial
from fkdet.lehmer_scan import SearchSpace, scan
from fkdet.mahler import log_mahler_quadrature, mahler_boyd_lawton, mahler_jensen
from fkdet.values import Radical

from helpers import kernel_reduction_on_a, rand_poly

LEHMER = "z^10 + z^9 - z^7 - z^6 - z^5 - z^4 - z^3 + z + 1"
LEHMER_MEASURE = 1.176280818259917


def report(num: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    line = "criterion %2d: %s  (%s; %.2fs of %gs)" % (
        num, "PASS" if ok and elapsed < limit else "FAIL", detail, elapsed, limit
    )
    print(line)
    assert ok, line
    assert elapsed < limit, line


def unit(group, c=1):
    return FiniteGroupRingElement.unit(group, coeff=c)


def rand_element(rng, group, bound=2):
    return FiniteGroupRingElement(
        group, tuple(rng.randrange(-bound, bound + 1) for _ in range(group.order))
    )


def rand_finite_matrix(rng, group, r, s, bound=2):
    return FiniteGroupRingMatrix(
        group, [[rand_element(rng, group, bound) for _ in range(s)] for _ in range(r)]
    )


def rand_zd_matrix(rng, r, s, rank=1, bound=2, max_exp=3):
    return GroupRingMatrix(
        [[rand_poly(rng, rank, bound, max_exp) for _ in range(s)] for _ in range(r)],
        rank=rank,
    )


def test_criterion_1_lehmer_value(tmp_path):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["mahler", "--poly", LEHMER, "--out", str(out)])
    elapsed = time.perf_counter() - start
    value = json.loads(out.read_text())["result"]["measure"]["value"]
    ok = code == 0 and abs(value - LEHMER_MEASURE) <= 5e-6
    report(1, ok, "M(L) = %.10f" % value, elapsed, 1)


def test_criterion_2_exact_golden_set():
    start = time.perf_counter()
    triv = make_cyclic(1)
    z2 = make_cyclic(2)
    row_pair = FiniteGroupRingMatrix(
        triv, [[unit(triv), unit(triv)], [unit(triv, 0), unit(triv, 0)]]
    )
    checks = [
        (fk_det_finite(row_pair).exact, Radical(2, Fraction(1, 2))),
        (fk_det_finite(parse_element(z2, "t + 1")).exact, Radical(2, Fraction(1, 2))),
        (fk_det_finite(parse_element(z2, "t + 2")).exact, Radical(3, Fraction(1, 2))),
    ]
    for n in (3, 5, 7, 9):
        g = make_cyclic(n)
        checks.append(
            (fk_det_finite(parse_element(g, "t + 1")).exact, Radical(2, Fraction(1, n)))
        )
    for n in (3, 4, 5):
        g = make_cyclic(n)
        x = norm_element(g) - unit(g)
        checks.append((fk_det_finite(x).exact, Radical(n - 1, Fraction(1, n))))
    elapsed = time.perf_counter() - start
    ok = all(got == want for got, want in checks)
    report(2, ok, "%d exact radical equalities" % len(checks), elapsed, 5)


def test_criterion_3_scan_reproduction():
    start = time.perf_counter()
    z2_scan = scan(SearchSpace(group=make_cyclic(2), coeff_bound=2), "lambda_w_1")
    triv_scan = scan(SearchSpace(group=make_cyclic(1), coeff_bound=3), "lambda_w_1")
    elapsed = time.perf_counter() - start
    ok = (
        z2_scan.infimum_found.exact == Radical(3, Fraction(1, 2))
        and triv_scan.infimum_found.exact == Radical(2)
    )
    report(
        3,
        ok,
        "Z/2 gives %s, trivial gives %s"
        % (z2_scan.infimum_found.exact, triv_scan.infimum_found.exact),
        elapsed,
        10,
    )


def _dets_match(got, lhs, rhs):
    # exact radical forms when all sides carry them, 1e-10 relative else
    if got.exact is not None and lhs.exact is not None and rhs.exact is not None:
        return got.exact == lhs.exact * rhs.exact
    want = lhs.value * rhs.value
    return abs(got.value - want) <= 1e-10 * max(1.0, abs(want))


def test_criterion_4_determinant_properties():
    start = time.perf_counter()
    rng = random.Random(14)
    groups = [make_cyclic(n) for n in (2, 3, 4, 5)]
    z2, z4, triv = make_cyclic(2), make_cyclic(4), make_cyclic(1)

    multiplicative = block = symmetric = restricted = induced = 0
    while multiplicative < 200:
        g = rng.choice(groups)
        n = rng.randrange(1, 3)
        f = rand_finite_matrix(rng, g, n, n)
        h = rand_finite_matrix(rng, g, n, n)
        if vn_dim_kernel_finite(f) != 0 or vn_dim_kernel_finite(h) != 0:
            continue
        assert _dets_match(fk_det_finite(f @ h), fk_det_finite(f), fk_det_finite(h))
        multiplicative += 1

    while block < 200:
        g = rng.choice(groups)
        a = rng.randrange(1, 3)
        b = rng.randrange(1, 3)
        top = rand_finite_matrix(rng, g, a, a)
        bottom = rand_finite_matrix(rng, g, b, b)
        if vn_dim_kernel_finite(top) != 0 or vn_dim_kernel_finite(bottom) != 0:
            continue
        corner = rand_finite_matrix(rng, g, a, b)
        zero = FiniteGroupRingMatrix.zero(g, b, a)
        rows = [list(top.entries[i]) + list(corner.entries[i]) for i in range(a)]
        rows += [list(zero.entries[i]) + list(bottom.entries[i]) for i in range(b)]
        stacked = FiniteGroupRingMatrix(g, rows)
        assert _dets_match(
            fk_det_finite(stacked), fk_det_finite(top), fk_det_finite(bottom)
        )
        block += 1

    while symmetric < 200:
        g = rng.choice(groups)
        n = rng.randrange(1, 3)
        f = rand_finite_matrix(rng, g, n, n)
        if vn_dim_kernel_finite(f) != 0:
            continue
        det = fk_det_finite(f)
        assert fk_det_finite(f.adjoint()).exact == det.exact
        gram = fk_det_finite(f @ f.adjoint())
        assert gram.exact == det.exact**2
        symmetric += 1

    while restricted < 200:
        f = rand_finite_matrix(rng, z4, rng.randrange(1, 3), rng.randrange(1, 3))
        det = fk_det_finite(f)
        assert fk_det_finite(restrict(f, z2, [0, 2])).exact == det.exact**2
        assert fk_det_finite(restrict(f, triv, [0])).exact == det.exact**4
        restricted += 1

    while induced < 200:
        f = rand_finite_matrix(rng, z2, rng.randrange(1, 3), rng.randrange(1, 3))
        assert fk_det_finite(induce(f, z4, [0, 2])).exact == fk_det_finite(f).exact
        induced += 1

    elapsed = time.perf_counter() - start
    counts = (multiplicative, block, symmetric, restricted, induced)
    report(4, all(c >= 200 for c in counts), "cases %s" % (counts,), elapsed, 60)


def test_criterion_5_pipeline_vs_jensen():
    start = time.perf_counter()
    rng = random.Random(15)
    done = 0
    worst = 0.0
    while done < 100:
        n = rng.randrange(2, 4)
        a = rand_zd_matrix(rng, n, n)
        det = a.det()
        if det.is_zero():
            continue
        pipeline = fk_det_zd(a).value.value
        oracle = mahler_jensen(det).value
        worst = max(worst, abs(pipeline - oracle) / max(1.0, abs(oracle)))
        done += 1
    elapsed = time.perf_counter() - start
    report(5, worst <= 1e-8, "100 squares, worst rel diff %.2e" % worst, elapsed, 60)


def test_criterion_6_subapproximation_chain():
    start = time.perf_counter()
    a = GroupRingMatrix([[parse_polynomial("z - 2")]])
    seq = det_sequence(a, chain_range(1, 2, 40))
    oracle_ok = all(
        stage.exact == Radical(2**n - 1, Fraction(1, n))
        for n, stage in zip(range(2, 41), seq.values)
    )
    below = all(stage.value <= 2 + 1e-9 for stage in seq.values)
    final_gap = abs(seq.values[-1].value - 2.0)
    elapsed = time.perf_counter() - start
    ok = oracle_ok and below and final_gap <= 1e-6 and seq.limsup_ok
    report(6, ok, "39 stages, final gap %.2e" % final_gap, elapsed, 10)


def test_criterion_7_boyd_lawton_vs_quadrature():
    start = time.perf_counter()
    p = parse_polynomial("1 + z1 + z2", rank=2)
    bl = mahler_boyd_lawton(p, [(50,), (100,), (200,)]).value
    fine = log_mahler_quadrature(p, 4096).value
    coarse = log_mahler_quadrature(p, 2048).value
    elapsed = time.perf_counter() - start
    ok = abs(bl - fine) <= 1e-2 and abs(coarse - fine) < 1e-3
    report(
        7,
        ok,
        "specialization %.6f vs grid %.6f (self gap %.2e)"
        % (bl, fine, abs(coarse - fine)),
        elapsed,
        180,
    )


def test_criterion_8_determinant_conjecture():
    start = time.perf_counter()
    rng = random.Random(18)
    values = []
    while len(values) < 170:  # over Z
        p = rand_poly(rng, 1)
        if not p.is_zero():
            values.append(fk_det_zd(GroupRingMatrix([[p]])).value.value)
    while len(values) < 335:  # over Z^2
        p = rand_poly(rng, 2, max_exp=1)
        if not p.is_zero():
            values.append(fk_det_zd(GroupRingMatrix([[p]], rank=2)).value.value)
    while len(values) < 500:  # 2 x 2 over Z/n
        g = make_cyclic(rng.randrange(2, 7))
        values.append(fk_det_finite(rand_finite_matrix(rng, g, 2, 2)).value)
    smallest = min(values)
    elapsed = time.perf_counter() - start
    report(
        8, smallest >= 1 - 1e-6, "500 inputs, smallest %.9f" % smallest, elapsed, 120
    )


def test_criterion_9_kernel_basis_independence():
    start = time.perf_counter()
    rng = random.Random(19)
    done = 0
    worst = 0.0
    while done < 20:
        a = rand_zd_matrix(rng, 3, 2, max_exp=2)
        if a.is_zero():
            continue
        # Lück's kernel reduction through either basis, and the short-side
        # route, which builds none
        one = kernel_reduction_on_a(a, "canonical")[0]
        other = kernel_reduction_on_a(a, "reversed")[0]
        short = fk_det_zd(a).value.value
        worst = max(worst, (abs(one - other) + abs(one - short)) / max(1.0, abs(one)))
        done += 1
    elapsed = time.perf_counter() - start
    report(9, worst <= 1e-8, "20 matrices, worst rel diff %.2e" % worst, elapsed, 30)


def test_criterion_10_z2_integrality():
    start = time.perf_counter()
    z2 = make_cyclic(2)
    injective = 0

    def entries():
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                yield FiniteGroupRingElement(z2, (a, b))

    ok = True
    for x in entries():
        if x.is_zero():
            continue
        d = det_exact(regular_rep(x))
        if d != 0:
            injective += 1
            ok = ok and (d % 2 == 1 or d % 4 == 0)
    pool = list(entries())
    for i in range(len(pool)):
        for j in range(len(pool)):
            for k in range(len(pool)):
                for l in range(len(pool)):
                    m = FiniteGroupRingMatrix(z2, [[pool[i], pool[j]], [pool[k], pool[l]]])
                    d = det_exact(regular_rep(m))
                    if d != 0:
                        injective += 1
                        ok = ok and (d % 2 == 1 or d % 4 == 0)
    elapsed = time.perf_counter() - start
    report(10, ok, "%d injective cases, all odd or 0 mod 4" % injective, elapsed, 30)
