"""Benchmark of the fkdet command line on four fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``fkdet`` from its
``src`` directory.  Each op is one in-process call of ``fkdet.cli.main``
with ``--out`` pointing at a work file, under a per-op deadline.  The run
sets up (imports, generates the seeded inputs, writes the matrix files,
warms up) three times and reports the median; then it repeats passes over
the ops while another pass fits in ``--seconds`` (at least one pass), and
only afterwards reads the reports back and checks them against independent
references.  Times are normalized to a nominal machine speed by a probe
loop run between ops (see ``PROBE_NOMINAL_S``).  With ``--trace 1`` half
the time runs untraced and half with spans around every layer; the
per-layer metrics come from the traced half.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines record
the machine and the run.  Workload choice and the layer map are in
``bench/README.md``.
"""

from __future__ import annotations

import os

# one process, one thread: numpy's OpenBLAS would otherwise start a thread
# per core, and FKDET_THREADS would turn on the program's thread pools
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("FKDET_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3

# The CPU speed of the shared sandbox this was built on switches between
# levels up to 1.7x apart, for about a second at a time and in stretches of
# tens of minutes.  Every time metric is therefore normalized: raw seconds
# times this nominal probe time (the median of machine_probe on an idle
# 2-core Xeon) over the probe time measured next to the timed work.  Raw
# values go to the run line.
PROBE_NOMINAL_S = 0.0025
# probing after an op lasts this share of the op's time (at least one
# probe), so a long op is compared with a long stretch of the machine
PROBE_SHARE = 0.05
PROBE_FIRST_S = 0.5

# (name, unit, better, bound): reported by every untraced run
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("max_rel_err", "ratio", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.005),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _layer(prefix: str, *suffixes: str) -> list:
    units = {"calls": "count", "self_s": "s"}
    return [("%s.%s" % (prefix, s), units.get(s, "count"), "lower") for s in suffixes]


# (name, unit, better): reported by every traced run, zero where a workload
# does not reach the layer
PER_LAYER = tuple(
    _layer("mahler.boyd_lawton", "calls", "self_s", "spec_degree_max")
    + _layer("mahler.quadrature", "calls", "self_s", "points")
    + _layer("mahler.jensen", "calls", "self_s", "degree_sum", "degree_max")
    + _layer("mahler.roots", "calls", "self_s")
    + _layer("mahler.squarefree", "calls", "self_s")
    + _layer("laurent.kernel_basis", "calls", "self_s")
    + _layer("laurent.det", "calls", "self_s")
    + _layer("laurent.specialize", "calls", "self_s")
    + _layer("laurent.parse", "calls", "self_s")
    + _layer("laurent.matmul", "self_s")
    + _layer("laurent.poly_init", "calls")
    + _layer("laurent", "detD1_terms_max")
    + _layer("fk_zd.det", "calls", "self_s")
    + _layer("fk_zd", "noninjective")
    + _layer("fk_finite.det", "calls", "self_s", "order_sum")
    + [("fk_finite.det.p50_ms", "ms", "lower"), ("fk_finite.det.max_ms", "ms", "lower")]
    + _layer("fk_finite.regular_rep", "calls", "self_s")
    + _layer("fk_finite.make_group", "self_s")
    + _layer("fk_finite.kernel_dim", "calls", "self_s")
    + _layer("exact_linalg.det", "calls", "self_s", "dim_max")
    + _layer("exact_linalg.rank", "calls", "self_s", "dim_max")
    + _layer("exact_linalg.charpoly", "calls", "self_s", "dim_max")
    + _layer("exact_linalg.matmul", "self_s")
    + _layer("lehmer_scan.scan", "self_s")
    + _layer("lehmer_scan", "raw", "examined", "injectivity_checks", "evaluated", "det_one")
    + [
        ("lehmer_scan.canonical_ratio", "ratio", "lower"),
        ("lehmer_scan.useful_ratio", "ratio", "higher"),
    ]
    + _layer("approx.det_sequence", "calls", "self_s")
    + _layer("approx.reduce_mod", "calls", "self_s")
    + _layer("approx", "stage_order_sum")
    + _layer("cli.main", "calls", "self_s")
    + [
        ("exact_frac", "ratio", "higher"),
        ("tracing_overhead", "ratio", "lower"),
    ]
)


class OpDeadline(BaseException):
    """Raised by the alarm handler; a BaseException, so the command line's
    own ``except (ValueError, ...)`` cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def run_op(cli, argv: list, deadline: float) -> tuple:
    """One call of ``cli.main`` (looked up at call time, so a traced
    wrapper is used); returns (status, seconds).  The status is the exit
    code, "deadline", or the name of an exception the command line let
    through; only 0 is a success."""
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            status = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        status = "deadline"
    except Exception as exc:  # a crash of one op must not end the run
        traceback.print_exc()
        status = type(exc).__name__
    return status, perf_counter() - start


def machine_probe() -> float:
    """Seconds for a fixed pure-Python loop that uses no fkdet code."""
    start = perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return perf_counter() - start


def probe_burst(seconds: float) -> float:
    """Mean probe time over at least ``seconds`` (at least one probe)."""
    samples = [machine_probe()]
    end = perf_counter() + seconds
    while perf_counter() < end:
        samples.append(machine_probe())
    return statistics.fmean(samples)


def _scale(seconds: float, before: float, after: float) -> float:
    """Seconds at nominal speed, from the probe times around the work."""
    return seconds * PROBE_NOMINAL_S * 2 / (before + after)


def _out_path(workdir: str, index: int) -> str:
    return os.path.join(workdir, "out-%03d.json" % index)


def run_passes(cli, ops: list, workdir: str, budget: float, deadline: float) -> tuple:
    """Passes over the ops while another pass is expected to fit in the
    budget.  Returns (normalized pass seconds, [(op index, status, raw
    seconds, normalized seconds)]).

    Probes run between ops; each op's time is scaled by the nominal probe
    time over the mean of the probe bursts before and after it.  An op
    stopped by the deadline keeps its raw time, which the clock and not the
    CPU set."""
    passes: list = []
    runs: list = []
    start = perf_counter()
    before = probe_burst(PROBE_FIRST_S)
    while True:
        total = 0.0
        for i, op in enumerate(ops):
            out = _out_path(workdir, i)
            if os.path.exists(out):
                os.remove(out)
            status, seconds = run_op(cli, op.argv + ["--out", out], deadline)
            after = probe_burst(PROBE_SHARE * seconds)
            scaled = seconds if status == "deadline" else _scale(seconds, before, after)
            before = after
            runs.append((i, status, seconds, scaled))
            total += scaled
        passes.append(total)
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes, runs


def import_seconds() -> float:
    """Import time of the command line module in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import fkdet.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def set_up(cli, workloads, name: str, seed: int, workdir: str) -> tuple:
    """Generate inputs, write files and warm up; returns (ops, seconds)."""
    start = perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = workloads.build(name, seed, workdir)
    status = cli.main(workloads.WARMUP[name] + ["--out", os.path.join(workdir, "warmup.json")])
    if status != 0:
        raise RuntimeError("warm-up op exited with %r" % status)
    return ops, perf_counter() - start


def tail(values: list) -> tuple:
    """Highest percentile with at least ten values beyond it; with fewer
    than 20 values, the maximum.  Returns (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        openblas = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas,
        "commit": commit,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FKDET_THREADS")},
    }


def check_reports(checks, ops: list, runs: list, workdir: str) -> tuple:
    """Check each op's report, written by its last run when that run exited
    0 (reports are deterministic, so it stands for every run of the op).

    Returns (per-op outcome or None, per-run success flags)."""
    last = {i: status for i, status, *_ in runs}
    outcomes = []
    for i, op in enumerate(ops):
        if last.get(i) != 0:
            outcomes.append(None)
            continue
        with open(_out_path(workdir, i), encoding="utf-8") as fh:
            outcomes.append(checks.check(op.check, json.load(fh)))
    ok = [status == 0 and outcomes[i] is not None and outcomes[i].ok for i, status, *_ in runs]
    return outcomes, ok


def end_to_end(passes, runs, ok, outcomes, setup_s, rss_mb) -> tuple:
    """End-to-end values from the runs of one phase; ``ok`` flags each run.

    Timings are probe-normalized and best-of-k: the fastest pass, and per
    op its fastest run, so a pass that met a slow spell of the machine does
    not set the figure."""
    n_ops = len(runs) // len(passes)
    best = min(range(len(passes)), key=passes.__getitem__)
    lo = best * n_ops
    items = sum(outcomes[i].items for (i, *_), good in zip(runs[lo : lo + n_ops], ok[lo : lo + n_ops]) if good)
    fastest: dict = {}
    for i, _, _, seconds in runs:
        fastest[i] = min(seconds, fastest.get(i, seconds))
    tail_ms, pct = tail(list(fastest.values()))
    errors = [e for o in outcomes if o is not None and o.ok for e in o.errors]
    metrics = {
        "wall_s": passes[best],
        "items_per_s": items / passes[best],
        "op_p50_ms": 1e3 * statistics.median(fastest.values()),
        "op_tail_ms": 1e3 * tail_ms,
        "max_rel_err": max(errors) if errors else 1.0,
        "ok_frac": sum(ok) / len(runs),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    raw = [r[2] for r in runs]
    note = {
        "ops": n_ops,
        "passes": len(passes),
        "tail_percentile": pct,
        "items_per_pass": items,
        "pass_s": passes,
        "raw_pass_s": [sum(raw[p * n_ops : (p + 1) * n_ops]) for p in range(len(passes))],
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
    }
    return metrics, note


def traced_metrics(tracing, tracer, checks, ops, passes, plain_passes, outcomes) -> tuple:
    """Per-layer values of the traced phase and whether the scan funnel's
    raw counts match the seed values."""
    checked = [o for o in outcomes if o is not None]
    funnel = {"examined": 0, "det_one": 0}
    for o in checked:
        for key in funnel:
            funnel[key] += o.funnel.get(key, 0)
    results = sum(o.results for o in checked)
    values = tracing.layer_metrics(
        tracer,
        len(passes),
        funnel,
        sum(o.exact for o in checked) / results if results else 0.0,
        min(passes) / min(plain_passes) - 1.0,
    )
    problems = []
    for op in ops:
        want = checks.SCANS.get(op.check.get("space"))
        if want is not None and values.get("lehmer_scan.raw") != want["raw"]:
            problems.append("raw candidates %r, seed %r" % (values.get("lehmer_scan.raw"), want["raw"]))
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fkdet", "cli.py")):
        print("bench: no fkdet sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import workloads
    import fkdet.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("bench: imported fkdet from %s, not from %s" % (cli.__file__, SRC), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        names = ", ".join(workloads.WORKLOADS)
        print("bench: unknown workload %r; pick one of %s" % (args.workload, names), file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = workloads.DEADLINE[args.workload]

    workdir = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = machine_probe()
            imported = import_seconds()
            ops, built = set_up(cli, workloads, args.workload, args.seed, workdir)
            setups.append(_scale(imported + built, before, machine_probe()))
        setup_s = statistics.median(setups)

        if args.trace:
            import tracing

            plain_passes, plain_runs = run_passes(cli, ops, workdir, args.seconds / 2, deadline)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes, runs = run_passes(cli, ops, workdir, args.seconds / 2, deadline)
            finally:
                tracer.uninstall()
            all_runs = plain_runs + runs
        else:
            passes, runs = run_passes(cli, ops, workdir, args.seconds, deadline)
            all_runs = runs
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        outcomes, ok = check_reports(checks, ops, all_runs, workdir)
        problems = ["%s: %s" % (op.label, o.reason) for op, o in zip(ops, outcomes) if o is not None and not o.ok]
        metrics, note = end_to_end(passes, runs, ok[-len(runs):], outcomes, setup_s, rss_mb)
        if args.trace:
            values, funnel_problems = traced_metrics(tracing, tracer, checks, ops, passes, plain_passes, outcomes)
            problems += funnel_problems
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_csv(os.path.join(OUT_DIR, "spans-%s-%d.csv" % (args.workload, args.seed)))
            table = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            values = metrics
            table = [(name, unit) for name, unit, _, _ in END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    run_line = dict(workload=args.workload, seed=args.seed, trace=args.trace, **note)
    print("run " + json.dumps(run_line, sort_keys=True))
    for problem in problems:
        print("check failed: " + problem)
    for i, status, seconds, _ in all_runs:
        if status != 0:
            print("op failed: %s: %s after %.3f s" % (ops[i].label, status, seconds))
    result = {
        "correct": not problems,
        "attempted": len(all_runs),
        "failed": ok.count(False),
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
