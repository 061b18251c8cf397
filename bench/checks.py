"""Checks of the JSON reports, run after the timed phase.

Each check returns whether the report is right, how many items the op
completed (a determinant, a quotient stage or an examined candidate), how
many of its results carry an exact radical, and the relative errors against
references accurate enough to count toward ``max_rel_err``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal

import oracle
from polys import from_text
from workloads import LEHMER

# relative tolerances of the independent checks: the program's rank-1 and
# quotient values are exact up to rounding; its multivariate values come
# from the Boyd-Lawton ramp, whose error at k = 200 is about 1e-3
TOL_RANK1 = 1e-7
TOL_STAGE = 1e-9
TOL_MULTIVARIATE = 1e-2
TORUS_GRID = 1024

CLOSED_FORMS = {
    "1xy": oracle.LOG_M_1XY,
    "3xy": Decimal(3).ln(),
    "1xyz": oracle.LOG_M_1XYZ,
}

# seed funnel counts: the search is exhaustive, so these never change
SCANS = {
    "z": {
        "examined": 29888,
        "det_one": 301,
        "raw": 177146,
        "witness": {"kind": "element", "terms": LEHMER},
        "infimum": oracle.lehmer_number,
        "exact": None,
    },
    "finite": {
        "examined": 8043,
        "det_one": 784,
        "raw": 94448,
        "witness": {"kind": "matrix", "coeffs": [[1, 1, 0], [0, 0, 0], [0, 0, 0], [1, 0, 0]]},
        "infimum": oracle.cube_root_two,
        "exact": {"base": 2, "exponent": "1/3"},
    },
}


@dataclass
class Outcome:
    ok: bool = True
    reason: str = ""
    items: int = 0
    exact: int = 0
    results: int = 0
    errors: list = field(default_factory=list)  # relative errors, floored
    funnel: dict = field(default_factory=dict)

    def fail(self, reason: str) -> "Outcome":
        self.ok = False
        self.reason = reason
        return self


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * abs(ref)


def check_zd(check: dict, result: dict) -> Outcome:
    out = Outcome(items=1, results=1)
    value = float(result["value"]["value"])
    out.exact = int("exact" in result["value"])
    closed = check.get("closed_log")
    if closed is not None:
        ref = CLOSED_FORMS[closed].exp()
        err = oracle.rel_err(value, ref)
        out.errors.append(max(err, oracle.EXACT_FLOOR))
        if err > TOL_MULTIVARIATE:
            return out.fail("closed form %s, got %r (rel err %.2e)" % (ref, value, err))
        return out
    entries, rank = check["entries"], check["rank"]
    if rank == 1:
        ref = oracle.fk_det_rank1(entries)
        if not _close(value, ref, TOL_RANK1):
            return out.fail("rank-1 oracle %r, got %r" % (ref, value))
        return out
    ref, gap = oracle.fk_det_torus(entries, rank, TORUS_GRID)
    if gap > TOL_MULTIVARIATE / 4:
        return out.fail("torus oracle unresolved: grid gap %.2e" % gap)
    if not _close(value, ref, TOL_MULTIVARIATE):
        return out.fail("torus oracle %r, got %r" % (ref, value))
    return out


def check_chain(check: dict, result: dict) -> Outcome:
    stages = result["stages"]
    wanted = list(range(check["lo"], check["hi"] + 1))
    out = Outcome(items=len(stages), results=len(stages))
    if [s["moduli"][0] for s in stages] != wanted:
        return out.fail("stage moduli %r, wanted %d..%d" % ([s["moduli"] for s in stages], wanted[0], wanted[-1]))
    for stage in stages:
        n = stage["moduli"][0]
        value = float(stage["value"]["value"])
        if "exact" not in stage["value"]:
            return out.fail("stage %d of an integral input has no exact radical" % n)
        out.exact += 1
        ref = math.exp(oracle.stage_log_det(check["entries"], check["rank"], n))
        if not _close(value, ref, TOL_STAGE):
            return out.fail("stage %d: character sum %r, got %r" % (n, ref, value))
        out.errors.append(max(abs(value - ref) / ref, oracle.ORACLE_FLOOR))
    return out


def check_scan(check: dict, result: dict) -> Outcome:
    want = SCANS[check["space"]]
    out = Outcome(items=int(result["count_examined"]), results=1)
    out.funnel = {"examined": result["count_examined"], "det_one": result["count_det_one"]}
    for key in ("examined", "det_one"):
        if result["count_" + key] != want[key]:
            return out.fail("count_%s %r, seed %r" % (key, result["count_" + key], want[key]))
    if result["budget_exceeded"]:
        return out.fail("budget exceeded")
    witness = result["witness"] or {}
    if want["witness"]["kind"] == "element":
        got = from_text(witness.get("text", "0"), 1)
        if got != want["witness"]["terms"]:
            return out.fail("witness %r" % witness.get("text"))
    elif witness.get("coeffs") != want["witness"]["coeffs"]:
        return out.fail("witness %r" % witness)
    infimum = result["infimum_found"]
    value = float(infimum["value"])
    ref = want["infimum"]()
    err = oracle.rel_err(value, ref)
    out.errors.append(max(err, oracle.EXACT_FLOOR))
    if err > 1e-12:
        return out.fail("infimum %r, reference %s" % (value, ref))
    out.exact = int("exact" in infimum)
    if want["exact"] is not None and infimum.get("exact") != want["exact"]:
        return out.fail("infimum exact form %r, wanted %r" % (infimum.get("exact"), want["exact"]))
    return out


CHECKS = {"zd": check_zd, "chain": check_chain, "scan": check_scan}


def check(op_check: dict, report: dict) -> Outcome:
    try:
        return CHECKS[op_check["kind"]](op_check, report["result"])
    except (KeyError, TypeError, ValueError) as exc:
        return Outcome().fail("malformed report: %r" % exc)
