"""The four workloads: seeded inputs, command lines and what each check needs.

Each op is one ``fkdet`` command line.  ``build`` generates the inputs from
the seed, writes the matrix files into the work directory and returns the
ops of one pass.  Random inputs follow the generator of the acceptance
suite's criterion 8 (one to three terms, coefficients in -2..2).  Where
the cost of an input class differs by orders of magnitude (a rank-2 input
whose support spreads along z2 runs the Boyd-Lawton ramp at degree ~400; a
quotient polynomial vanishing at 1 takes the Gram route at every stage),
the seed draws the members of each class but not how many there are, so a
pass costs about the same on every seed.  The scans are exhaustive and do
not depend on the seed at all.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import numpy as np

from polys import matrix_json, matrix_span, span, to_text

LEHMER = {(0,): 1, (1,): 1, (3,): -1, (4,): -1, (5,): -1, (6,): -1, (7,): -1, (9,): 1, (10,): 1}
ONE_XY = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
THREE_XY = {(0, 0): 3, (1, 0): 1, (0, 1): 1}
ONE_XYZ = {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}

# per-op deadline in seconds; the slowest legitimate zd_det op takes about
# 2 s on a 2-core Xeon (3.5 s in the machine's slow spells), the two
# known-defect inputs run for minutes
DEADLINE = {"zd_det": 6.0, "scan_z": 60.0, "approx_chain": 60.0, "scan_finite": 60.0}

# zd_det mix: class -> count per pass
ZD_RANK1_MATRICES = 200
ZD_RANK2_POLYS_HEAVY = 8  # Boyd-Lawton at degree ~400, about 1 s each
ZD_RANK2_POLYS_LIGHT = 12  # constant along z2, milliseconds each
# rank-2 rows and columns: (shape, heavy).  A heavy 2x1 doubles the degrees
# through its kernel and takes 3 to 7 s, too close to the deadline
ZD_RANK2_ROWS = (((1, 2), True), ((1, 2), False), ((2, 1), False), ((2, 1), False))

CHAIN_LEHMER = (2, 160)
CHAIN_RANDOM = (2, 60)
CHAIN_RANDOM_INJECTIVE = 13  # no zero at any root of unity of order <= 60
CHAIN_VANISHING = (2, 40)  # one polynomial with p(1) = 0: Gram route every stage
CHAIN_COLUMN = (2, 60)
CHAIN_RANK2 = (2, 10)

SCAN_Z = ["lehmer-scan", "--box", "10", "--coeff-bound", "1", "--variant", "lambda_1"]
SCAN_FINITE = [
    "lehmer-scan", "--cyclic", "3", "--shape", "2,2", "--coeff-bound", "1",
    "--support", "6", "--variant", "lambda_w",
]


@dataclass
class Op:
    label: str
    argv: list  # subcommand and flags, without --out
    check: dict  # what the check after the timed phase needs


def _rand_poly(rng: random.Random, rank: int, max_exp: int) -> dict:
    terms: dict = {}
    for _ in range(rng.randrange(1, 4)):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in range(rank))
        terms[e] = terms.get(e, 0) + rng.randrange(-2, 3)
    return {e: c for e, c in terms.items() if c}


def _rand_matrix(rng, rows: int, cols: int, rank: int, max_exp: int) -> list:
    return [[_rand_poly(rng, rank, max_exp) for _ in range(cols)] for _ in range(rows)]


def _draw(make, accept):
    while True:
        x = make()
        if accept(x):
            return x


def _nonzero(entries: list) -> bool:
    return any(p for row in entries for p in row)


def _all_nonzero(entries: list) -> bool:
    return all(p for row in entries for p in row)


def _ramp_class(entries: list):
    """True for inputs that run the Boyd-Lawton ramp at degree ~400 in
    about a second (an entry spreads along z2, no entry has more than two
    terms, coefficient sizes differ); False for inputs constant along z2 in
    every entry (the ramp stays at low degree, milliseconds); None for the
    rest, which the mix leaves out: zero inputs; spread inputs whose
    coefficients all have one size, which specialize to near-cyclotomic
    polynomials and take 0.1 s or 1 s; spread inputs with a three-term
    entry, which take 1 to 15 s and so straddle the deadline."""
    if not any(p for row in entries for p in row):
        return None
    if not any(span(p, 1) for row in entries for p in row):
        return False
    if any(len(p) > 2 for row in entries for p in row):
        return None
    sizes = {abs(c) for row in entries for p in row for c in p.values()}
    return True if len(sizes) > 1 else None


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def zd_op(self, label: str, entries: list, rank: int, command: str, extra=(), **check) -> Op:
        if len(entries) == 1 and len(entries[0]) == 1:
            source = ["--poly=" + to_text(entries[0][0], rank), "--rank", str(rank)]
        else:
            path = os.path.join(self.workdir, "in-%03d.json" % self.count)
            self.count += 1
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(matrix_json(entries, rank), fh)
            source = ["--matrix-file", path]
        return Op(label, [command] + source + list(extra), dict(entries=entries, rank=rank, **check))


def _zd_det(rng: random.Random, w: _Writer) -> list:
    ops = [
        w.zd_op("golden 1+z1+z2", [[ONE_XY]], 2, "fkdet-zd", kind="zd", closed_log="1xy"),
        w.zd_op("golden 3+z1+z2", [[THREE_XY]], 2, "fkdet-zd", kind="zd", closed_log="3xy"),
        # known defects: Boyd-Lawton runs for minutes on both
        w.zd_op("defect 1+z1+z2+z3", [[ONE_XYZ]], 3, "fkdet-zd", kind="zd", closed_log="1xyz"),
    ]
    defect = _draw(
        lambda: _rand_matrix(rng, 3, 2, 2, 1),
        lambda m: all(len(p) >= 2 for row in m for p in row)
        and matrix_span(m, 0) and matrix_span(m, 1),
    )
    ops.append(w.zd_op("defect rank-2 3x2", defect, 2, "fkdet-zd", kind="zd"))
    for i in range(ZD_RANK1_MATRICES):
        # 3x2 (a kernel to reduce, ~15 ms) outnumber 2x2 (~4 ms), so the
        # median op sits inside the 3x2 class, not between the two
        shape = (2, 2) if i % 10 < 3 else (3, 2)
        m = _draw(lambda: _rand_matrix(rng, *shape, 1, 3), _nonzero)
        ops.append(w.zd_op("rank-1 %dx%d" % shape, m, 1, "fkdet-zd", kind="zd"))
    for heavy, count in ((True, ZD_RANK2_POLYS_HEAVY), (False, ZD_RANK2_POLYS_LIGHT)):
        for _ in range(count):
            m = _draw(lambda: _rand_matrix(rng, 1, 1, 2, 1), lambda m: _ramp_class(m) == heavy)
            ops.append(w.zd_op("rank-2 poly", m, 2, "fkdet-zd", kind="zd"))
    for shape, heavy in ZD_RANK2_ROWS:
        m = _draw(
            lambda: _rand_matrix(rng, *shape, 2, 1),
            lambda m: _all_nonzero(m) and _ramp_class(m) == heavy,
        )
        ops.append(w.zd_op("rank-2 %dx%d" % shape, m, 2, "fkdet-zd", kind="zd"))
    return ops


def _unit_root_min(coeffs: list, hi: int) -> float:
    """Smallest |p| over all n-th roots of unity, n <= hi."""
    desc = np.array(coeffs[::-1], dtype=float)
    pts = np.concatenate([np.exp(2j * np.pi * np.arange(n) / n) for n in range(1, hi + 1)])
    return float(np.min(np.abs(np.polyval(desc, pts))))


def _rand_degree10(rng: random.Random) -> list:
    return [rng.choice((-2, -1, 1, 2))] + [rng.randrange(-2, 3) for _ in range(9)] + [
        rng.choice((-2, -1, 1, 2))
    ]


def _chain_op(w: _Writer, label: str, entries: list, rank: int, lo_hi: tuple) -> Op:
    lo, hi = lo_hi
    return w.zd_op(label, entries, rank, "approx-chain", ["--chain", "%d..%d" % lo_hi], kind="chain", lo=lo, hi=hi)


def _approx_chain(rng: random.Random, w: _Writer) -> list:
    ops = [_chain_op(w, "lehmer", [[LEHMER]], 1, CHAIN_LEHMER)]
    for _ in range(CHAIN_RANDOM_INJECTIVE):
        c = _draw(lambda: _rand_degree10(rng), lambda c: _unit_root_min(c, CHAIN_RANDOM[1]) > 1e-6)
        ops.append(_chain_op(w, "random injective", [[{(i,): x for i, x in enumerate(c) if x}]], 1, CHAIN_RANDOM))
    c = _draw(lambda: _rand_degree10(rng), lambda c: sum(c) == 0)
    ops.append(_chain_op(w, "random p(1)=0", [[{(i,): x for i, x in enumerate(c) if x}]], 1, CHAIN_VANISHING))
    col = _draw(lambda: _rand_matrix(rng, 2, 1, 1, 3), _all_nonzero)
    ops.append(_chain_op(w, "random 2x1", col, 1, CHAIN_COLUMN))
    ops.append(_chain_op(w, "3+z1+z2", [[THREE_XY]], 2, CHAIN_RANK2))
    return ops


def build(workload: str, seed: int, workdir: str) -> list:
    """Generate one pass of ops; matrix files go into workdir."""
    rng = random.Random("%s:%d" % (workload, seed))
    w = _Writer(workdir)
    if workload in ("zd_det", "approx_chain"):
        ops = (_zd_det if workload == "zd_det" else _approx_chain)(rng, w)
        # interleave the classes, so each is timed across the whole pass
        # and not in one stretch of the machine's speed
        rng.shuffle(ops)
        return ops
    if workload == "scan_z":
        return [Op("lehmer-scan box 10", list(SCAN_Z), {"kind": "scan", "space": "z"})]
    if workload == "scan_finite":
        return [Op("lehmer-scan Z/3 2x2", list(SCAN_FINITE), {"kind": "scan", "space": "finite"})]
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("zd_det", "scan_z", "approx_chain", "scan_finite")

# warm-up command per workload: one small op through the same subcommand
WARMUP = {
    "zd_det": ["fkdet-zd", "--poly", "z - 2"],
    "scan_z": ["lehmer-scan", "--box", "2", "--coeff-bound", "1", "--variant", "lambda_1"],
    "approx_chain": ["approx-chain", "--poly", "z - 2", "--chain", "2..6"],
    "scan_finite": ["lehmer-scan", "--cyclic", "2", "--coeff-bound", "2", "--variant", "lambda_w_1"],
}
