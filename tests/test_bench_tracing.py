"""The names the bench tracer patches must still exist in the package.

``bench/tracing.py`` wraps functions and methods by name; one that is
renamed or removed makes ``bench/run.py --trace 1`` fail at install time.
"""

import importlib

from helpers import load_tracing


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



def test_traced_run_reports_the_layers(capsys, tmp_path):
    # the notes read trace attributes (q, detD1) that a name check cannot
    # see, so run the tracer around a few real commands
    from fkdet import cli

    tracing = load_tracing()
    path = tmp_path / "deficient.json"
    # a repeated row: rank 1, so fk_det_zd takes the charpoly route
    path.write_text(
        '{"rank": 1, "rows": 2, "cols": 2, "entries": ["z - 1", "z - 2", "z - 1", "z - 2"]}',
        encoding="utf-8",
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [
            cli.main(["fkdet-zd", "--matrix-file", str(path)]),
            cli.main(["approx-chain", "--poly", "z - 2", "--chain", "2..4"]),
            cli.main(["lehmer-scan", "--cyclic", "2", "--variant", "lambda_w_1"]),
            cli.main(["mahler", "--poly", "1 + z1 + z2", "--method", "quadrature",
                      "--grid", "64"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    metrics = tracing.layer_metrics(tracer, 1, {}, 1.0, 0.0)
    assert metrics["fk_zd.noninjective"] > 0
    assert metrics["laurent.detD1_terms_max"] > 0
    assert metrics["approx.det_sequence.calls"] == 1
    assert metrics["lehmer_scan.scan.calls"] == 1
    assert metrics["lehmer_scan.evaluated"] > 0
    assert "laurent.kernel_basis.calls" not in metrics
    # the quadrature's guards leave the point counter its (p, n) arguments
    assert metrics["mahler.quadrature.calls"] == 1
    assert metrics["mahler.quadrature.points"] == 64**2 + 32**2
