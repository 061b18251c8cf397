"""Spans and counters around each layer's public functions, from outside.

``Tracer.install`` replaces each traced function by a wrapper wherever a
module of the package binds it (``fk_zd`` imports ``mahler_jensen`` at
import time, ``lehmer_scan`` imports ``roots_one_var``; patching only the
home module would miss those calls) and each traced method on its class.
Spans (name, start, end, parent) stay in memory and are written as CSV when
the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _poly_degree(p) -> int:
    exps = [e[0] for e in p.terms]
    return max(exps) - min(exps) if exps else 0


def _note_jensen(t, args, result):
    d = _poly_degree(args[0])
    t.sums["mahler.jensen.degree_sum"] += d
    t.maxes["mahler.jensen.degree_max"] = max(t.maxes["mahler.jensen.degree_max"], d)


def _note_specialize(t, args, result):
    d = _poly_degree(result)
    key = "mahler.boyd_lawton.spec_degree_max"
    t.maxes[key] = max(t.maxes[key], d)


def _note_fk_zd(t, args, result):
    if result.q > 0:
        t.sums["fk_zd.noninjective"] += 1
    key = "laurent.detD1_terms_max"
    t.maxes[key] = max(t.maxes[key], len(result.detD1.terms))


def _note_finite(t, args, result):
    t.sums["fk_finite.det.order_sum"] += args[0].group.order


def _note_dim(name):
    key = name + ".dim_max"

    def note(t, args, result):
        t.maxes[key] = max(t.maxes[key], len(args[0]))

    return note


def _note_reduce(t, args, result):
    order = 1
    for n in args[1]:
        order *= int(n)
    t.sums["approx.stage_order_sum"] += order


# (span name, module, function, note called with (tracer, args, result))
FUNCTIONS = (
    ("cli.main", "fkdet.cli", "main", None),
    ("laurent.parse", "fkdet.laurent", "parse_polynomial", None),
    ("mahler.boyd_lawton", "fkdet.mahler", "mahler_boyd_lawton", None),
    ("mahler.quadrature", "fkdet.mahler", "log_mahler_quadrature", None),
    ("mahler.jensen", "fkdet.mahler", "mahler_jensen", _note_jensen),
    ("mahler.roots", "fkdet.mahler", "roots_one_var", None),
    ("mahler.squarefree", "fkdet.mahler", "squarefree_decomposition", None),
    ("fk_zd.det", "fkdet.fk_zd", "fk_det_zd", _note_fk_zd),
    ("fk_finite.det", "fkdet.fk_finite", "fk_det_finite", _note_finite),
    ("fk_finite.regular_rep", "fkdet.fk_finite", "regular_rep", None),
    ("fk_finite.make_group", "fkdet.fk_finite", "make_cyclic", None),
    ("fk_finite.make_group", "fkdet.fk_finite", "make_cyclic_product", None),
    ("fk_finite.make_group", "fkdet.fk_finite", "direct_product", None),
    ("fk_finite.kernel_dim", "fkdet.fk_finite", "vn_dim_kernel_finite", None),
    ("exact_linalg.det", "fkdet.exact_linalg", "det_exact", _note_dim("exact_linalg.det")),
    ("exact_linalg.rank", "fkdet.exact_linalg", "rank_exact", _note_dim("exact_linalg.rank")),
    (
        "exact_linalg.charpoly",
        "fkdet.exact_linalg",
        "charpoly_berkowitz",
        _note_dim("exact_linalg.charpoly"),
    ),
    ("exact_linalg.matmul", "fkdet.exact_linalg", "mat_mul_exact", None),
    ("lehmer_scan.scan", "fkdet.lehmer_scan", "scan", None),
    ("approx.det_sequence", "fkdet.approx", "det_sequence", None),
    ("approx.reduce_mod", "fkdet.approx", "reduce_mod", _note_reduce),
)

# (span name, module, class, method, note)
METHODS = (
    ("laurent.kernel_basis", "fkdet.laurent", "GroupRingMatrix", "kernel_basis", None),
    ("laurent.det", "fkdet.laurent", "GroupRingMatrix", "det", None),
    ("laurent.matmul", "fkdet.laurent", "GroupRingMatrix", "__matmul__", None),
    ("laurent.specialize", "fkdet.laurent", "LaurentPolynomial", "specialize", _note_specialize),
)

# counted, not timed: (counter, module, class, method); the scan contexts
# are private classes, the only place the funnel is observable
COUNTERS = (
    ("laurent.poly_init.calls", "fkdet.laurent", "LaurentPolynomial", "__init__"),
    ("lehmer_scan.injectivity_checks", "fkdet.lehmer_scan", "_FiniteSpace", "injective"),
    ("lehmer_scan.injectivity_checks", "fkdet.lehmer_scan", "_LaurentSpace", "injective"),
    ("lehmer_scan.evaluated", "fkdet.lehmer_scan", "_FiniteSpace", "evaluate"),
    ("lehmer_scan.evaluated", "fkdet.lehmer_scan", "_LaurentSpace", "evaluate"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, child seconds]
        self.stack: list = []
        self.sums: dict = defaultdict(float)
        self.maxes: dict = defaultdict(float)
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, note):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, perf_counter(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]
            if note is not None:
                note(self, args, result)
            return result

        return wrapper

    def _counter(self, name, fn, amount=None):
        sums = self.sums

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sums[name] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return wrapper

    def _raw_counter(self, fn):
        sums = self.sums

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for vec in fn(*args, **kwargs):
                sums["lehmer_scan.raw"] += 1
                yield vec

        return wrapper

    # -- patching ---------------------------------------------------------

    def _replace_function(self, module: str, attr: str, make) -> None:
        orig = getattr(importlib.import_module(module), attr)
        wrapped = make(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "fkdet" or name.startswith("fkdet.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    def _replace_method(self, module: str, cls: str, attr: str, make) -> None:
        owner = getattr(importlib.import_module(module), cls)
        orig = owner.__dict__[attr]
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        for name, module, attr, note in FUNCTIONS:
            self._replace_function(module, attr, lambda f, n=name, k=note: self._span(n, f, k))
        for name, module, cls, attr, note in METHODS:
            self._replace_method(module, cls, attr, lambda f, n=name, k=note: self._span(n, f, k))
        for name, module, cls, attr in COUNTERS:
            self._replace_method(module, cls, attr, lambda f, n=name: self._counter(n, f))
        self._replace_function("fkdet.lehmer_scan", "_vectors", self._raw_counter)
        # grid points: n ** rank per grid the quadrature evaluates
        self._replace_function(
            "fkdet.mahler",
            "_grid_log_mean",
            lambda f: self._counter("mahler.quadrature.points", f, lambda a: a[1] ** a[0].rank),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def totals(self) -> tuple:
        """Per span name: (calls, self seconds, list of durations)."""
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        durations: dict = defaultdict(list)
        for name, start, end, _, child in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child
            durations[name].append(end - start)
        return calls, self_s, durations

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write("%d,%s,%.9f,%.9f,%d\n" % (i, name, start, end, parent))


def layer_metrics(tracer: Tracer, passes: int, funnel: dict, exact_frac: float, overhead: float) -> dict:
    """Per-layer metric values of the traced phase, per pass where additive.

    ``funnel`` holds one pass's examined and determinant-one counts, read
    from the scan reports."""
    calls, self_s, durations = tracer.totals()
    out = {}
    for name in calls:
        out[name + ".calls"] = calls[name] / passes
        out[name + ".self_s"] = self_s[name] / passes
    for key, value in tracer.sums.items():
        out[key] = value / passes
    out.update(tracer.maxes)
    finite = durations.get("fk_finite.det", [])
    out["fk_finite.det.p50_ms"] = 1e3 * statistics.median(finite) if finite else 0.0
    out["fk_finite.det.max_ms"] = 1e3 * max(finite) if finite else 0.0
    raw = out.get("lehmer_scan.raw", 0.0)
    evaluated = out.get("lehmer_scan.evaluated", 0.0)
    out["lehmer_scan.examined"] = funnel.get("examined", 0)
    out["lehmer_scan.det_one"] = funnel.get("det_one", 0)
    out["lehmer_scan.canonical_ratio"] = out["lehmer_scan.examined"] / raw if raw else 0.0
    out["lehmer_scan.useful_ratio"] = (
        (evaluated - out["lehmer_scan.det_one"]) / evaluated if evaluated else 0.0
    )
    out["exact_frac"] = exact_frac
    out["tracing_overhead"] = overhead
    return out
