"""Command line dispatch, report envelopes, output formats, exit codes."""

import argparse
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fkdet.cli
from fkdet.cli import main
from fkdet.laurent import GroupRingMatrix, matrix_to_json, parse_polynomial
from fkdet.lehmer_scan import DEFAULT_ONE_THRESHOLD
from fkdet.mahler import JENSEN_MAX_DEGREE, mahler_jensen

LEHMER = "z^10 + z^9 - z^7 - z^6 - z^5 - z^4 - z^3 + z + 1"


def run_cli(capsys, *argv):
    # argparse-level usage failures surface as SystemExit(2); handler-level
    # failures return their status, and both carry JSON on stderr
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def error_of(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    return code, json.loads(err)["error"]


# ---------------------------------------------------------------------------
# report envelope


def test_mahler_report_envelope(capsys):
    blob = run_json(capsys, "mahler", "--poly", "z-2")
    assert blob["schema_version"] == 1
    assert blob["tool"]["name"] == "fkdet"
    assert blob["tool"]["version"]
    assert blob["config"]["subcommand"] == "mahler"
    assert blob["config"]["poly"] == "z-2"
    assert blob["config"]["poly_file"] is None
    assert blob["config"]["method"] == "auto"
    result = blob["result"]
    assert result["polynomial"] == "-2 + z"
    assert result["resolved_method"] == "jensen"
    assert result["measure"]["value"] == pytest.approx(2.0, abs=1e-12)


def test_json_reports_are_byte_identical(capsys):
    argv = ("mahler", "--poly", LEHMER)
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first == second
    assert json.loads(first)["result"]["measure"]["value"] == pytest.approx(
        1.176280818259917, abs=5e-6
    )


def _no_digit_limit():
    """The int-to-text digit limit lifted, as main lifts it while it writes."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    return limit


@pytest.mark.parametrize(
    "argv",
    [
        ("mahler", "--poly", LEHMER),
        ("mahler", "--poly", "1 + z1 + z2", "--method", "quadrature", "--grid", "16"),
        ("fkdet-zd", "--poly", "1 + z1 + z2", "--trace"),
        ("fkdet-zd", "--poly", "z - 2"),
        ("fkdet-finite", "--cyclic", "3,2", "--coeffs", "2,1,0,0,0,1"),
        ("lehmer-scan", "--box", "6", "--variant", "lambda_1", "--survey"),
        ("lehmer-scan", "--cyclic", "3", "--variant", "lambda_w_1"),
        ("approx-chain", "--poly", "z - 2", "--chain", "2..6"),
        # a radical base of 4 772 digits, past the default limit of 4 300
        ("approx-chain", "--poly", "3 + z", "--chain", "10000"),
        ("exact-constants", "--cyclic", "4", "--torsion-order", "3"),
        ("trace-check", "--poly", "z - 2", "--degree", "3", "--moduli", "5"),
    ],
    ids=lambda argv: " ".join(argv[:2]) if isinstance(argv, tuple) else None,
)
def test_report_encoder_writes_what_json_dumps_does(capsys, monkeypatch, argv):
    written = []
    encode = fkdet.cli.json_text

    def spy(value):
        written.append((value, encode(value)))
        return written[-1][1]

    monkeypatch.setattr(fkdet.cli, "json_text", spy)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    ((report, text),) = written
    assert out == text + "\n"
    limit = _no_digit_limit()
    try:
        assert text == json.dumps(report, sort_keys=True, indent=2)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_report_encoder_edge_values():
    values = [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": [[], {}, ()], "d": (1, -2.5, None, True, False)},
        {"text": "caf\u00e9 \"quoted\"\n\t\\ \U0001d11e", "": ""},
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324, 0.1],
        {3: "int", 10: "keys", -1: "sort numerically"},
        {2.5: "float", -1.0: "keys", math.inf: "too"},
        {True: "bool", False: "keys"},
        {None: "a null key"},
        "top", 7, 2.0, None, True,
        {"nested": {"deeper": [{"x": [1, [2, [3]]]}]}},
        [2**80, -(2**70)],
    ]
    for value in values:
        assert fkdet.cli.json_text(value) == json.dumps(value, sort_keys=True, indent=2)
    for bad in (object(), {"k": {1, 2}}, [b"bytes"], {(1, 2): "tuple key"}):
        with pytest.raises(TypeError):
            fkdet.cli.json_text(bad)
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ("exact-constants", "--cyclic", "3")
    _, streamed, _ = run_cli(capsys, *argv)
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text(encoding="utf-8") == streamed


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("fkdet ")


# ---------------------------------------------------------------------------
# mahler


# one minimal valid command line per subcommand
MINIMAL_ARGV = {
    "mahler": ["--poly", "z - 2"],
    "fkdet-zd": ["--poly", "z - 2"],
    "fkdet-finite": ["--cyclic", "2", "--elem", "t + 2"],
    "lehmer-scan": ["--cyclic", "2", "--variant", "lambda_w_1"],
    "approx-chain": ["--poly", "z - 2", "--chain", "2..3"],
    "exact-constants": ["--cyclic", "2"],
    "trace-check": ["--poly", "z", "--degree", "1", "--moduli", "2"],
}


def test_every_flag_is_recorded_in_the_config(capsys):
    # walk the parser, so a flag added later cannot go unrecorded
    parser = fkdet.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(MINIMAL_ARGV)
    for name, subparser in sub.choices.items():
        dests = {a.dest for a in subparser._actions if a.option_strings}
        config = run_json(capsys, name, *MINIMAL_ARGV[name])["config"]
        assert set(config) == (dests - {"help", "format", "out"}) | {"subcommand"}, name
        assert config["subcommand"] == name


def test_mahler_poly_file(capsys, tmp_path):
    path = tmp_path / "lehmer.txt"
    path.write_text(LEHMER, encoding="utf-8")
    blob = run_json(capsys, "mahler", "--poly-file", str(path))
    assert blob["config"]["poly"] is None
    assert blob["config"]["poly_file"] == str(path)
    assert blob["result"]["measure"]["value"] == pytest.approx(
        1.176280818259917, abs=5e-6
    )


def test_mahler_multivariate_methods(capsys):
    auto = run_json(capsys, "mahler", "--poly", "z1 + z2 + 1")
    assert auto["result"]["resolved_method"] == "jensen"
    assert auto["result"]["measure"]["value"] == pytest.approx(1.3813564445, abs=1e-6)
    # jensen on two variables: a one-variable polynomial in z1/z2
    jensen = run_json(capsys, "mahler", "--poly", "z1 + z2")
    assert jensen["result"]["measure"]["method"] == "jensen"
    assert jensen["result"]["measure"]["value"] == 1.0
    quad = run_json(
        capsys, "mahler", "--poly", "z1 + z2 + 1", "--method", "quadrature",
        "--grid", "64",
    )
    assert quad["result"]["measure"]["method"] == "quadrature"
    assert quad["result"]["measure"]["value"] == pytest.approx(1.3813564445, abs=5e-2)
    # past the aliasing budget of the default grid, a finer grid measures it
    quad = run_json(
        capsys, "mahler", "--poly", "1 + z1^33 + z2^33", "--method", "quadrature",
        "--grid", "512",
    )
    assert quad["result"]["measure"]["value"] == pytest.approx(1.3813564445, abs=1e-4)
    # one variable takes exact roots whatever the method
    one = run_json(capsys, "mahler", "--poly", "z - 2", "--method", "quadrature")
    assert one["result"]["resolved_method"] == "jensen"
    assert one["result"]["measure"]["value"] == 2.0


def test_mahler_text_format(capsys):
    code, out, _ = run_cli(capsys, "mahler", "--poly", "z-2", "--format", "text")
    assert code == 0
    assert out.startswith("M = 2.0")


# ---------------------------------------------------------------------------
# fkdet-zd


def test_fkdet_zd_inline(capsys):
    blob = run_json(capsys, "fkdet-zd", "--poly", "z - 2")
    assert blob["result"]["q"] == 0
    assert blob["result"]["value"]["value"] == pytest.approx(2.0, abs=1e-12)
    assert "D1" not in blob["result"]


def test_fkdet_zd_three_variables(capsys):
    # the rank-3 golden log M = 7 zeta(3) / (2 pi^2)
    blob = run_json(capsys, "fkdet-zd", "--poly", "1 + z1 + z2 + z3")
    value = blob["result"]["value"]
    assert value["method"] == "jensen"
    closed = math.exp(7 * 1.2020569031595943 / (2 * math.pi**2))
    assert abs(value["value"] - closed) <= 1e-8


def test_fkdet_zd_trace(capsys, tmp_path):
    m = GroupRingMatrix(
        [
            [parse_polynomial("z - 2"), parse_polynomial("1")],
            [parse_polynomial("0"), parse_polynomial("z - 3")],
        ]
    )
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix_to_json(m)), encoding="utf-8")
    blob = run_json(capsys, "fkdet-zd", "--matrix-file", str(path), "--trace")
    assert blob["result"]["q"] == 0
    assert blob["result"]["value"]["value"] == pytest.approx(6.0, abs=1e-9)
    assert set(blob["result"]) == {
        "matrix", "side", "route", "q", "D1", "detD1", "detD1_measure", "value"
    }
    assert (blob["result"]["route"], blob["result"]["detD1"]) == ("det", "6 - 5*z + z^2")
    # rank-deficient input: the lowest characteristic coefficient of SS*,
    # here -tr(SS*) = -2 rr* for the repeated row r = (z - 1, z - 2)
    row = [parse_polynomial("z - 1"), parse_polynomial("z - 2")]
    path.write_text(json.dumps(matrix_to_json(GroupRingMatrix([row, row]))), encoding="utf-8")
    blob = run_json(capsys, "fkdet-zd", "--matrix-file", str(path), "--trace")
    assert (blob["result"]["route"], blob["result"]["q"]) == ("charpoly", 1)
    assert blob["result"]["detD1"] == "6*z^-1 - 14 + 6*z"
    want = math.sqrt(mahler_jensen(parse_polynomial("6*z^-1 - 14 + 6*z")).value)
    assert blob["result"]["value"]["value"] == pytest.approx(want, rel=1e-15)
    code, _, err = run_cli(capsys, "fkdet-zd", "--poly", "z", "--kernel-variant", "reversed")
    assert code == 2 and "--kernel-variant" in err


# ---------------------------------------------------------------------------
# fkdet-finite


def test_successive_calls_share_no_option_values(capsys):
    # main reuses one parser; options and defaults of one call must not
    # reach the next, whether the subcommand changes or not
    first = run_json(
        capsys, "fkdet-zd", "--poly", "z - 2", "--method", "quadrature",
        "--grid", "64", "--trace",
    )
    assert first["config"]["grid_size"] == 64
    assert first["config"]["trace"] is True
    assert "route" in first["result"]
    second = run_json(capsys, "mahler", "--poly", "1 + z1 + z2")
    assert second["config"] == {
        "subcommand": "mahler",
        "poly": "1 + z1 + z2",
        "poly_file": None,
        "rank": None,
        "method": "auto",
        "grid_size": 256,
    }
    assert second["result"]["resolved_method"] == "jensen"
    third = run_json(capsys, "fkdet-zd", "--poly", "z - 3", "--format", "json")
    assert third["config"] == {
        "subcommand": "fkdet-zd",
        "poly": "z - 3",
        "matrix_file": None,
        "rank": None,
        "method": "auto",
        "grid_size": 256,
        "trace": False,
    }
    assert set(third["result"]) == {"matrix", "q", "value"}
    code, out, _ = run_cli(capsys, "mahler", "--poly", "z - 2", "--format", "text")
    assert code == 0 and out.startswith("M = 2.0")
    assert run_json(capsys, "mahler", "--poly", "z - 5")["config"]["poly"] == "z - 5"


def test_fkdet_finite_element(capsys):
    blob = run_json(capsys, "fkdet-finite", "--cyclic", "2", "--elem", "t+2")
    assert blob["result"]["group"] == {"kind": "cyclic", "order": 2}
    assert blob["result"]["input"]["text"] == "t + 2"
    assert blob["result"]["input"]["coeffs"] == [2, 1]
    assert blob["result"]["kernel_dimension"] == "0"
    assert blob["result"]["value"]["exact"] == {"base": 3, "exponent": "1/2"}


def test_fkdet_finite_coeffs_product_group(capsys):
    # the sum of all four group elements of Z/2 x Z/2: kernel dimension 3/4
    # and Gram pseudo-determinant 16^(1/8) = sqrt(2)
    blob = run_json(capsys, "fkdet-finite", "--cyclic", "2,2", "--coeffs", "1,1,1,1")
    assert blob["result"]["group"]["order"] == 4
    assert blob["result"]["kernel_dimension"] == "3/4"
    assert blob["result"]["value"]["exact"] == {"base": 2, "exponent": "1/2"}


def test_fkdet_finite_matrix_file(capsys, tmp_path):
    path = tmp_path / "row.json"
    path.write_text(
        json.dumps({"rows": 1, "cols": 2, "entries": [[1], [1]]}), encoding="utf-8"
    )
    blob = run_json(capsys, "fkdet-finite", "--cyclic", "1", "--matrix-file", str(path))
    assert blob["result"]["input"]["kind"] == "matrix"
    assert blob["result"]["value"]["exact"] == {"base": 2, "exponent": "1/2"}


def test_fkdet_finite_group_file(capsys, tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(
        json.dumps({"table": [[0, 1], [1, 0]], "identity": 0}), encoding="utf-8"
    )
    blob = run_json(
        capsys, "fkdet-finite", "--group-file", str(path), "--coeffs", "2,1"
    )
    assert blob["result"]["value"]["exact"] == {"base": 3, "exponent": "1/2"}


def test_element_text_on_a_z4_table_file_matches_cyclic_4(capsys, tmp_path):
    # a Z/4 table with no declared kind reads element text as --cyclic 4 does
    path = tmp_path / "z4.json"
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    path.write_text(json.dumps({"table": table, "identity": 0}), encoding="utf-8")
    from_file = run_json(
        capsys, "fkdet-finite", "--group-file", str(path), "--elem", "t + 2"
    )["result"]
    cyclic = run_json(
        capsys, "fkdet-finite", "--cyclic", "4", "--elem", "t + 2"
    )["result"]
    assert from_file["input"]["coeffs"] == cyclic["input"]["coeffs"] == [2, 1, 0, 0]
    assert from_file["value"] == cyclic["value"]
    assert from_file["value"]["exact"] == {"base": 15, "exponent": "1/4"}
    assert from_file["kernel_dimension"] == cyclic["kernel_dimension"]


# ---------------------------------------------------------------------------
# lehmer-scan


def test_scan_cyclic_json(capsys):
    blob = run_json(
        capsys, "lehmer-scan", "--cyclic", "2", "--coeff-bound", "2",
        "--variant", "lambda_w_1",
    )
    assert blob["config"]["one_threshold"] == DEFAULT_ONE_THRESHOLD
    result = blob["result"]
    assert result["infimum_found"]["exact"] == {"base": 3, "exponent": "1/2"}
    assert result["witness"]["text"] == "t + 2"
    assert result["count_examined"] == 8
    assert result["budget_exceeded"] is False


def test_scan_box_golden_ratio(capsys):
    blob = run_json(
        capsys, "lehmer-scan", "--box", "2", "--support", "3",
        "--variant", "lambda_1",
    )
    golden = (1 + math.sqrt(5)) / 2
    assert blob["result"]["infimum_found"]["value"] == pytest.approx(golden, abs=1e-9)
    assert blob["result"]["witness"]["text"] == "1 + z - z^2"


def test_scan_box_two_variables(capsys):
    blob = run_json(capsys, "lehmer-scan", "--box", "2,1", "--variant", "lambda_1")
    assert "grid_size" not in blob["config"]
    result = blob["result"]
    assert result["witness"]["text"] == "1 + z2 + z1^2"
    assert result["infimum_found"]["method"] == "jensen"
    assert result["count_det_one"] == 37
    code, err = error_of(
        capsys, "lehmer-scan", "--grid", "64", "--box", "2,1", "--variant", "lambda_1"
    )
    assert code == 2
    assert "--grid" in err["message"]


def test_scan_refusal_gives_no_method_hint(capsys):
    # lehmer-scan has no --method option, so the refusal must not advise one
    code, err = error_of(
        capsys, "lehmer-scan", "--box", "1,1,1,1,1", "--support", "3",
        "--variant", "lambda_1",
    )
    assert code == 1
    assert "at most 3 outer variables, got 4" in err["message"]
    assert "--method" not in err["message"]
    # the front ends that do take --method add the advice
    for argv in (
        ("fkdet-zd", "--poly", "1 + z1^65 + z2^65"),
        ("approx-chain", "--poly", "1 + z1^65 + z2^65", "--chain", "2..3"),
    ):
        code, err = error_of(capsys, *argv)
        assert code == 1
        assert "inner degree 65" in err["message"]
        assert err["message"].endswith("; use --method quadrature")


def test_square_finite_scan_refuses_a_representation_over_the_budget(capsys):
    # a 2x2 over Z/51 and one element of Z/2 x Z/51 (a product table, so
    # not on the cyclic_norm route) need 102-dimensional representations
    for argv in (
        ("--cyclic", "51", "--shape", "2,2", "--variant", "lambda_w"),
        ("--cyclic", "2,51", "--variant", "lambda_w_1"),
    ):
        code, err = error_of(
            capsys, "lehmer-scan", *argv, "--coeff-bound", "1", "--support", "1"
        )
        assert code == 1
        assert err == {
            "kind": "domain",
            "message": "regular representation of dimension 102 is over the "
            "budget REP_MAX_DIM = 100",
        }


def test_scan_survey_csv(capsys):
    code, out, _ = run_cli(
        capsys, "lehmer-scan", "--cyclic", "3", "--coeff-bound", "2",
        "--variant", "lambda_1", "--survey", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "witness,value"
    assert any(line.startswith('"t + 1"') for line in lines[1:])


def test_scan_text(capsys):
    code, out, _ = run_cli(
        capsys, "lehmer-scan", "--cyclic", "1", "--coeff-bound", "3",
        "--variant", "lambda_w_1", "--format", "text",
    )
    assert code == 0
    assert "infimum = 2.0" in out
    assert "witness = 2" in out
    # a matrix witness in the bracket text of the survey rows
    code, out, _ = run_cli(
        capsys, "lehmer-scan", "--cyclic", "2", "--shape", "2,2",
        "--variant", "lambda_w", "--format", "text",
    )
    assert code == 0
    assert "witness = [t + 1, 1; 1, t + 1]" in out


# ---------------------------------------------------------------------------
# approx-chain


def test_chain_range_csv(capsys):
    code, out, _ = run_cli(
        capsys, "approx-chain", "--poly", "z-2", "--chain", "2..6", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,value"
    for line in lines[1:]:
        n_text, value_text = line.split(",")
        n = int(n_text)
        assert float(value_text) == pytest.approx((2**n - 1) ** (1 / n), abs=1e-12)


def test_chain_json_flavors(capsys):
    listed = run_json(capsys, "approx-chain", "--poly", "z-2", "--chain", "2,4,8")
    assert listed["result"]["chain"]["nested"] is True
    assert listed["result"]["limsup_ok"] is True
    assert listed["result"]["limit_reference"]["value"] == pytest.approx(2.0, abs=1e-12)
    ragged = run_json(capsys, "approx-chain", "--poly", "z-2", "--chain", "2,3")
    assert ragged["result"]["chain"]["nested"] is False
    # the moduli decide nestedness, ranges included
    for text, nested in (("5..5", True), ("1..2", True), ("2..4", False)):
        blob = run_json(capsys, "approx-chain", "--poly", "z-2", "--chain", text)
        assert blob["result"]["chain"]["nested"] is nested, text


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
)
def test_chain_report_writes_a_radical_past_the_digit_limit(capsys):
    # the stage norm 3**10000 - 1 has 4 772 digits, past Python's default
    # limit of 4 300 for converting an int to text
    limit = sys.get_int_max_str_digits()
    argv = ("approx-chain", "--poly", "3 + z", "--chain", "10000")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        blob = json.loads(out)
        exact = blob["result"]["stages"][0]["value"]["exact"]
        assert exact == {"base": 3**10000 - 1, "exponent": "1/10000"}
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, err = run_cli(capsys, *argv, "--format", "text")
    assert (code, err) == (0, "")
    assert out.startswith("order 10000  moduli [10000]  value 3.0")


@pytest.mark.parametrize("chain, message", [
    ("0,2", "positive"),
    ("0..3", "positive"),
    ("5..4", "LO <= HI"),
])
def test_bad_chain_moduli_exit_2(capsys, chain, message):
    code, err = error_of(capsys, "approx-chain", "--poly", "z-2", "--chain", chain)
    assert code == 2
    assert err["kind"] == "config"
    assert "--chain" in err["message"] and message in err["message"]


@pytest.mark.parametrize("flag, value", [("--doubling", "2:3"), ("--primes", "3")])
def test_chain_has_one_spelling(capsys, flag, value):
    code, err = error_of(capsys, "approx-chain", "--poly", "z-2", flag, value)
    assert code == 2
    assert err["kind"] == "config"
    assert flag in err["message"]


def test_chain_default_is_doubling(capsys):
    blob = run_json(capsys, "approx-chain", "--poly", "z-2")
    assert [s["moduli"] for s in blob["result"]["stages"]] == [
        [2], [4], [8], [16], [32],
    ]
    assert blob["config"]["tolerance"] == 1e-6
    assert blob["config"]["chain"] == "2,4,8,16,32"
    assert "doubling" not in blob["config"] and "primes" not in blob["config"]


# ---------------------------------------------------------------------------
# exact-constants and trace-check


def _square_matrix_file(tmp_path):
    """A rank-2 2x2 matrix, which takes the regular representation."""
    m = GroupRingMatrix(
        [[parse_polynomial(t, rank=2) for t in row]
         for row in (["1 + z1", "z2"], ["1", "2 + z1*z2"])]
    )
    path = tmp_path / "square.json"
    path.write_text(json.dumps(matrix_to_json(m)), encoding="utf-8")
    return str(path)


def test_chain_refuses_a_stage_over_the_representation_budget(capsys, tmp_path):
    # a 2x2 over Z/11 x Z/11 needs a 242-dimensional regular representation
    code, err = error_of(
        capsys, "approx-chain", "--matrix-file", _square_matrix_file(tmp_path),
        "--chain", "11..11",
    )
    assert code == 1
    assert err["kind"] == "domain"
    assert "dimension 242" in err["message"] and "REP_MAX_DIM = 100" in err["message"]


def test_chain_refuses_the_oversized_stage_before_the_others_run(capsys, tmp_path):
    # stages 2..7 of a 2x2 fit the budget; none is computed before (8, 8)
    # is refused
    start = time.perf_counter()
    code, err = error_of(
        capsys, "approx-chain", "--matrix-file", _square_matrix_file(tmp_path),
        "--chain", "2..11",
    )
    assert code == 1 and "dimension 128" in err["message"]
    assert time.perf_counter() - start < 0.5


def test_chain_of_one_element_runs_past_the_representation_budget(capsys):
    # Z/11 x Z/11 is over REP_MAX_DIM for the regular representation, but
    # one element takes the norm engine at every stage
    blob = run_json(capsys, "approx-chain", "--poly", "1 + z1 + z2", "--chain", "2..11")
    stages = blob["result"]["stages"]
    assert [s["order"] for s in stages] == [n * n for n in range(2, 12)]
    assert {s["value"]["method"] for s in stages} == {"cyclic_norm"}


@pytest.mark.parametrize(
    "argv",
    [
        ("mahler", "--poly", "2*z^100000 + 1"),
        ("mahler", "--poly", "2*z^100000 + 1", "--method", "quadrature"),
        ("fkdet-zd", "--poly", "2*z^100000 + 1"),
        # the Z reference is refused before any stage is measured
        ("approx-chain", "--poly", "2*z^100000 + 1", "--chain", "2..6"),
        ("approx-chain", "--poly", "2*z^100000 + 1", "--chain", "2..60"),
    ],
)
def test_one_variable_jensen_refuses_past_its_degree_budget(capsys, argv):
    start = time.perf_counter()
    code, err = error_of(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 1
    assert err["kind"] == "domain"
    # no other method measures one variable, so no advice
    assert err["message"] == (
        "one-variable jensen has degree 100000, over the budget "
        f"JENSEN_MAX_DEGREE = {JENSEN_MAX_DEGREE}"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("lehmer-scan", "--cyclic", "3", "--variant", "lambda_1", "--one-threshold", "nan"),
        ("lehmer-scan", "--box", "4", "--variant", "lambda_1", "--one-threshold", "inf"),
        ("lehmer-scan", "--box", "4", "--variant", "lambda_1", "--one-threshold=-1e-9"),
        ("approx-chain", "--poly", "z - 2", "--tolerance", "nan"),
        ("approx-chain", "--poly", "z - 2", "--tolerance=-inf"),
    ],
)
def test_thresholds_that_are_not_finite_and_nonnegative_exit_1(capsys, argv):
    code, err = error_of(capsys, *argv)
    assert code == 1
    assert err["kind"] == "domain"
    assert "must be finite and nonnegative" in err["message"]


def test_exact_constants_json(capsys):
    blob = run_json(capsys, "exact-constants", "--cyclic", "2", "--torsion-order", "3")
    constants = blob["result"]["constants"]
    assert constants["lambda_w_1"]["exact"] == {"base": 3, "exponent": "1/2"}
    assert constants["lambda"]["lower"] == {"base": 2, "exponent": "1/4"}
    assert blob["result"]["torsion_bound"]["value"] == pytest.approx(2 ** (1 / 3))


@pytest.mark.parametrize("moduli", ["0", "3,-1"])
def test_trace_check_refuses_a_modulus_below_1_as_a_flag_error(capsys, moduli):
    # like --chain 0,2 and --cyclic 0: exit 2 naming the flag
    code, err = error_of(capsys, "trace-check", "--poly", "z1 + z2", "--degree", "1",
                         "--moduli", moduli)
    assert code == 2
    assert err["kind"] == "config"
    assert "--moduli" in err["message"] and "positive" in err["message"]


def test_trace_check_json(capsys):
    blob = run_json(
        capsys, "trace-check", "--poly", "z + z^-1", "--degree", "2", "--moduli", "5"
    )
    assert blob["result"]["ok"] is True
    assert blob["result"]["traces_zd"] == ["0", "2"]
    assert blob["result"]["norm_bound"] == 2.0
    bad = run_json(
        capsys, "trace-check", "--poly", "z + z^-1", "--degree", "2", "--moduli", "2"
    )
    assert bad["result"]["ok"] is False
    assert bad["result"]["least_multiple"] == [4]
    # flags are recorded as typed, as --chain, --box and --cyclic are
    assert bad["config"]["moduli"] == "2"


# ---------------------------------------------------------------------------
# exit codes and structured errors


def test_domain_errors_exit_1(capsys, tmp_path):
    code, err = error_of(capsys, "mahler", "--poly", "0")
    assert code == 1
    assert err["kind"] == "domain"
    # unreadable input file and unwritable output path, each named
    missing = str(tmp_path / "no.json")
    code, err = error_of(capsys, "fkdet-zd", "--matrix-file", missing)
    assert code == 1
    assert err["kind"] == "domain"
    assert missing in err["message"]
    code, err = error_of(capsys, "mahler", "--poly", "z - 2", "--out", str(tmp_path))
    assert code == 1
    assert err["kind"] == "domain"
    assert str(tmp_path) in err["message"]
    # bad group table
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"table": [[0, 1], [0, 1]], "identity": 0}))
    code, err = error_of(capsys, "fkdet-finite", "--group-file", str(path),
                         "--coeffs", "1,1")
    assert code == 1
    assert "permutation" in err["message"]
    # a table that is not a list of integer rows
    path.write_text(json.dumps({"table": 5, "identity": 0}))
    code, err = error_of(capsys, "fkdet-finite", "--group-file", str(path),
                         "--coeffs", "1")
    assert code == 1
    assert err["kind"] == "domain"
    assert "integer rows" in err["message"]
    # element text over a non-cyclic table group, even one that declares
    # itself cyclic: t^3 = t holds in the Klein four-group and in no Z/4
    path2 = tmp_path / "klein.json"
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    path2.write_text(json.dumps({"kind": "cyclic", "table": klein, "identity": 0}))
    code, err = error_of(capsys, "fkdet-finite", "--group-file", str(path2),
                         "--elem", "t^3 - t")
    assert code == 1
    assert err["kind"] == "domain"
    # fibrewise Jensen refuses past its inner-degree budget
    code, err = error_of(capsys, "mahler", "--poly", "1 + z1^65 + z2^65")
    assert code == 1
    assert "inner degree 65" in err["message"] and "--method quadrature" in err["message"]
    # and past the outer span its grid resolves: z1^2048 is 1 at every point
    code, err = error_of(capsys, "mahler", "--poly", "2 + z2 + z1^2048")
    assert code == 1
    assert "span 2048" in err["message"] and "--method quadrature" in err["message"]
    # quadrature refuses the same span on its grid, and a grid over its
    # point budget; neither refusal gives advice
    code, err = error_of(capsys, "mahler", "--poly", "2 + z2 + z1^2048",
                         "--method", "quadrature")
    assert code == 1
    assert err["message"].endswith("quadrature exponents span 2048, over the budget 32 "
                                   "of its 256-point grid")
    code, err = error_of(capsys, "fkdet-zd", "--poly", "1 + z1 + z2 + z3 + z4 + z5",
                         "--method", "quadrature")
    assert code == 1
    assert err["message"].endswith("grid of 256^5 points, over the budget 16777216")
    # moduli arity mismatch
    code, err = error_of(capsys, "trace-check", "--poly", "z", "--degree", "1",
                         "--moduli", "2,3")
    assert code == 1
    # torsion bound needs m >= 3
    code, err = error_of(capsys, "exact-constants", "--cyclic", "2",
                         "--torsion-order", "2")
    assert code == 1


def test_timeout_inside_a_command_propagates(monkeypatch):
    # a deadline raised while a command runs is not an input error
    def slow(args):
        raise TimeoutError("deadline")

    monkeypatch.setattr(fkdet.cli, "_run_mahler", slow)
    with pytest.raises(TimeoutError, match="deadline"):
        main(["mahler", "--poly", "z - 2"])


@pytest.mark.parametrize("command", [
    ("mahler", "--poly", "1 + z1 + z2"),
    ("fkdet-zd", "--poly", "1 + z1 + z2"),
    ("approx-chain", "--poly", "1 + z1 + z2", "--chain", "2..3"),
])
def test_boyd_lawton_is_no_method(capsys, command):
    code, err = error_of(capsys, *command, "--method", "boyd_lawton")
    assert code == 2
    assert err["kind"] == "config"
    assert "boyd_lawton" in err["message"]


@pytest.mark.parametrize("command", [
    ("mahler", "--poly", "1 + z1 + z2"),
    ("fkdet-zd", "--poly", "1 + z1 + z2"),
    ("approx-chain", "--poly", "1 + z1 + z2", "--chain", "2..3"),
])
def test_jensen_is_spelled_auto(capsys, command):
    # fibrewise Jensen is what auto runs; a second name for it is refused
    code, err = error_of(capsys, *command, "--method", "jensen")
    assert code == 2
    assert err["kind"] == "config"
    assert "jensen" in err["message"]


def test_config_errors_exit_2(capsys):
    code, err = error_of(capsys, "mahler", "--poly", "z", "--format", "csv")
    assert code == 2
    assert err["kind"] == "config"
    code, err = error_of(capsys, "lehmer-scan", "--cyclic", "2", "--variant", "lambda",
                         "--format", "csv")
    assert code == 2
    code, err = error_of(capsys, "lehmer-scan", "--cyclic", "2", "--variant", "lambda",
                         "--shape", "1")
    assert code == 2
    code, err = error_of(capsys, "fkdet-finite", "--cyclic", "x", "--coeffs", "1")
    assert code == 2
    code, err = error_of(capsys, "approx-chain", "--poly", "z", "--chain", "2..x")
    assert code == 2


def test_argparse_failures_exit_2(capsys):
    code, err = error_of(capsys, "mahler")  # missing required input
    assert code == 2
    assert err["kind"] == "config"
    code, err = error_of(capsys, "no-such-command")
    assert code == 2
    code, err = error_of(capsys)
    assert code == 2


def test_no_subcommand_accepts_threads(capsys):
    for name in (
        "mahler", "fkdet-zd", "fkdet-finite", "lehmer-scan", "approx-chain",
        "exact-constants", "trace-check",
    ):
        code, out, _ = run_cli(capsys, name, "--help")
        assert code == 0
        assert "--threads" not in out and "--bl-" not in out, name
    code, err = error_of(capsys, "mahler", "--poly", "z", "--threads", "2")
    assert code == 2
    assert "--threads" in err["message"]


def run_console_script(name, *argv):
    """Run the [project.scripts] target named `name` from the source tree,
    as the wrapper that pip generates for it does, so no install is needed."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    code = (
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.argv[0] = {name!r}\n"
        f"sys.exit({attr}())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=60,
    )


def test_module_and_script_entry_points():
    proc = subprocess.run(
        [sys.executable, "-m", "fkdet", "mahler", "--poly", "z-2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["measure"]["value"] == 2.0
    script = run_console_script("fkdet", "--version")
    assert script.returncode == 0, script.stderr
    assert script.stdout.startswith("fkdet ")


@pytest.mark.skipif(
    shutil.which("fkdet") is None, reason="fkdet console script not installed"
)
def test_installed_console_script():
    script = subprocess.run(
        ["fkdet", "--version"], capture_output=True, text=True, timeout=60
    )
    assert script.returncode == 0
    assert script.stdout.startswith("fkdet ")
