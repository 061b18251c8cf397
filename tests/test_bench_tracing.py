"""The names the bench tracer patches must still exist in the package.

``bench/tracing.py`` wraps functions and methods by name; one that is
renamed or removed makes ``bench/run.py --trace 1`` fail at install time.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    functions = [(module, attr) for _, module, attr, _ in tracing.FUNCTIONS]
    functions += [("fkdet.lehmer_scan", "_vectors"), ("fkdet.mahler", "_grid_log_mean")]
    for module, attr in functions:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    methods = [(module, cls, attr) for _, module, cls, attr, _ in tracing.METHODS]
    methods += [(module, cls, attr) for _, module, cls, attr in tracing.COUNTERS]
    for module, cls, attr in methods:
        owner = getattr(importlib.import_module(module), cls, None)
        # the tracer replaces the method in the class's own namespace
        assert owner is not None and attr in vars(owner), (module, cls, attr)

