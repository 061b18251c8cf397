"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks that the oracle reproduces known values, that the benchmark's
polynomial texts mean the same to the program, that a missed deadline or a
crash is recorded as a failure and the next op still runs, that the checks
reject wrong reports, and that every metric the benchmark prints is
declared in BENCHMARK.json with the same unit.  Exits
non-zero on the first failure.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile

import run  # pins the thread environment before numpy loads

sys.path.insert(0, run.SRC)

import oracle  # noqa: E402
import workloads  # noqa: E402
from polys import from_text, to_text  # noqa: E402


def test_oracle_known_values():
    # README: approx-chain --poly "z-2" --chain 2..6 gives (2^n - 1)^(1/n)
    z_minus_2 = [[{(0,): -2, (1,): 1}]]
    readme = {2: 1.7320508075688774, 3: 1.912931182772389}
    for n in range(2, 7):
        got = math.exp(oracle.stage_log_det(z_minus_2, 1, n))
        assert abs(got - (2**n - 1) ** (1 / n)) < 1e-13, (n, got)
        if n in readme:
            assert abs(got - readme[n]) < 1e-13, (n, got)
    # README: mahler on Lehmer's polynomial gives M = 1.1762808182599176
    lehmer = [[workloads.LEHMER]]
    assert abs(oracle.fk_det_rank1(lehmer) - 1.1762808182599176) < 1e-13
    assert abs(float(oracle.lehmer_number()) - 1.1762808182599176) < 1e-15
    assert abs(oracle.fk_det_rank1(z_minus_2) - 2.0) < 1e-13
    value, gap = oracle.fk_det_torus([[workloads.ONE_XY]], 2, 1024)
    assert abs(value - float(oracle.LOG_M_1XY.exp())) < 1e-5 and gap < 1e-5, (value, gap)


def test_polynomial_text_round_trip():
    from fkdet.laurent import parse_polynomial

    rng = random.Random(3)
    for rank in (1, 2, 3):
        for _ in range(200):
            p = workloads._rand_poly(rng, rank, 3)
            text = to_text(p, rank)
            assert from_text(text, rank) == p, text
            parsed = parse_polynomial(text, rank=rank).terms
            assert {e: int(c) for e, c in parsed.items()} == p, text


def test_deadline_records_failure_and_recovers():
    import fkdet.cli as cli

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.json")
            status, seconds = run.run_op(cli, ["fkdet-zd", "--poly", "1 + z1 + z2 + z3", "--out", out], 0.5)
            assert status == "deadline" and 0.5 <= seconds < 1.5, (status, seconds)
            assert not os.path.exists(out)
            status, _ = run.run_op(cli, ["fkdet-zd", "--poly", "z - 2", "--out", out], 5.0)
            assert status == 0
            with open(out, encoding="utf-8") as fh:
                assert json.load(fh)["result"]["value"]["value"] == 2.0
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)

    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    with contextlib.redirect_stderr(io.StringIO()) as err:
        status, _ = run.run_op(Crashing, [], 5.0)
    assert status == "RuntimeError" and "boom" in err.getvalue(), status


def test_checks_reject_wrong_reports():
    import checks

    golden = {"kind": "zd", "entries": [[workloads.ONE_XY]], "rank": 2, "closed_log": "1xy"}
    right = float(oracle.LOG_M_1XY.exp())
    assert checks.check(golden, {"result": {"value": {"value": right}}}).ok
    assert not checks.check(golden, {"result": {"value": {"value": 1.05 * right}}}).ok
    chain = {"kind": "chain", "entries": [[{(0,): -2, (1,): 1}]], "rank": 1, "lo": 2, "hi": 3}
    stages = [
        {"moduli": [n], "value": {"value": (2**n - 1) ** (1 / n), "exact": {"base": 2**n - 1, "exponent": "1/%d" % n}}}
        for n in (2, 3)
    ]
    assert checks.check(chain, {"result": {"stages": stages}}).ok
    del stages[1]["value"]["exact"]
    assert not checks.check(chain, {"result": {"stages": stages}}).ok
    assert not checks.check(chain, {"result": {"stages": stages[:1]}}).ok
    assert not checks.check(chain, {"result": {}}).ok


def test_metric_names_match_declaration():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "scan_finite",
             "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True, cwd=run.ROOT,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared[key]}, key


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            print("FAIL %s: %s" % (name, exc))
            return 1
        print("ok   %s" % name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
