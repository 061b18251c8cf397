"""Command line front end: parsing, subcommand dispatch, report emission.

One subcommand per computation, one report per successful run.  JSON
reports are deterministic byte for byte: keys are sorted, floats print
through repr, and the configuration that produced the run is embedded
next to the result together with the schema and tool versions, so
accumulated survey records stay comparable.  main builds that
configuration from the parsed arguments in one place: every flag of the
subcommand, defaults included, except the output-only --format and --out.
Failures print a structured JSON object on stderr; the exit status
separates bad mathematics (1: zero polynomial, bad group table, pipeline
failures) from bad flags (2).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .approx import (
    QuotientChain,
    det_sequence,
    det_sequence_to_csv,
    norm_bound,
    trace_match_check,
)
from .fk_finite import (
    FiniteGroup,
    FiniteGroupRingElement,
    FiniteGroupRingMatrix,
    fk_det_kernel_finite,
    format_element,
    make_cyclic,
    make_cyclic_product,
    parse_element,
)
from .fk_zd import fk_det_zd
from .laurent import (
    GroupRingMatrix,
    format_polynomial,
    matrix_from_json,
    matrix_to_json,
    parse_polynomial,
)
from .lehmer_scan import (
    DEFAULT_ONE_THRESHOLD,
    VARIANTS,
    SearchSpace,
    constants_to_json,
    exact_constants,
    matrix_text,
    scan,
    survey_to_csv,
    torsion_bound_check,
)
from .mahler import MEASURE_METHODS, JensenRefusal, mahler_measure

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """A bad flag value or combination; the run exits with status 2."""


def _emit_error(kind: str, message) -> None:
    blob = {"error": {"kind": kind, "message": str(message)}}
    print(json.dumps(blob, sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # route argparse's own usage failures through the structured channel;
    # the exit status 2 it always used is exactly the config-error status
    def error(self, message):
        _emit_error("config", message)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# flag value parsing


def _int_list(text: str, flag: str) -> list:
    parts = [part.strip() for part in text.split(",")]
    try:
        items = [int(part) for part in parts if part != ""]
    except ValueError:
        raise ConfigError(f"{flag} wants comma separated integers, got {text!r}")
    if not items:
        raise ConfigError(f"{flag} got an empty list")
    return items


def _pair(text: str, flag: str) -> tuple:
    items = _int_list(text, flag)
    if len(items) != 2:
        raise ConfigError(f"{flag} wants exactly two integers, got {text!r}")
    return tuple(items)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_json(path: str) -> dict:
    return json.loads(_read_text(path))


def _coeff_json(c):
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else str(c)
    return c


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as json writes it: a str as is, a number, bool or None as
    its json text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_parts(value, newline: str, out: list) -> None:
    """Append the text of ``value`` to ``out``, nested values starting each
    line with ``newline``; the types are tested in json's own order."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            out.append(opener)
            _json_parts(item, inner, out)
            opener = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key, item in sorted(value.items()):
            out.append(opener + encode_basestring_ascii(_key_text(key)) + ": ")
            _json_parts(item, inner, out)
            opener = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` byte for byte.  With
    an indent, json writes through its pure-Python encoder, whose generators
    cost a visible share of a run that writes a long report; this one
    appends every piece to one list."""
    out: list = []
    _json_parts(value, "\n", out)
    return "".join(out)


# ---------------------------------------------------------------------------
# input loading


def _load_group(args) -> FiniteGroup:
    if args.cyclic is not None:
        mods = _int_list(args.cyclic, "--cyclic")
        if any(n < 1 for n in mods):
            raise ConfigError("--cyclic wants positive orders")
        if len(mods) == 1:
            return make_cyclic(mods[0])
        return make_cyclic_product(mods)
    return FiniteGroup.from_json(_load_json(args.group_file))


def _poly_input(args):
    if args.poly is not None:
        return parse_polynomial(args.poly, rank=args.rank)
    return parse_polynomial(_read_text(args.poly_file), rank=args.rank)


def _zd_matrix(args) -> GroupRingMatrix:
    if args.poly is not None:
        return GroupRingMatrix([[parse_polynomial(args.poly, rank=args.rank)]])
    return matrix_from_json(_load_json(args.matrix_file))


def _finite_matrix_from_json(group: FiniteGroup, blob: dict) -> FiniteGroupRingMatrix:
    try:
        rows = int(blob["rows"])
        cols = int(blob["cols"])
        entries = list(blob["entries"])
    except (KeyError, TypeError):
        raise ValueError("matrix json needs rows, cols, entries")
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    parsed = []
    for ent in entries:
        if isinstance(ent, str):
            parsed.append(parse_element(group, ent))
        elif isinstance(ent, list):
            if not all(isinstance(c, int) for c in ent):
                raise ValueError("coefficient lists must hold integers")
            parsed.append(FiniteGroupRingElement(group, ent))
        else:
            raise ValueError("entries are element texts or coefficient lists")
    grid = [parsed[i * cols : (i + 1) * cols] for i in range(rows)]
    return FiniteGroupRingMatrix(group, grid)


def _finite_input(args, group: FiniteGroup):
    if args.elem is not None:
        return parse_element(group, args.elem)
    if args.coeffs is not None:
        return FiniteGroupRingElement(group, _int_list(args.coeffs, "--coeffs"))
    return _finite_matrix_from_json(group, _load_json(args.matrix_file))


def _build_chain(args, rank: int) -> QuotientChain:
    text = args.chain
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ConfigError(f"--chain wants LO..HI or a comma list, got {text!r}")
        if hi < lo:
            raise ConfigError(f"--chain wants LO <= HI, got {text!r}")
        ns = range(lo, hi + 1)
    else:
        ns = _int_list(text, "--chain")
    if min(ns) < 1:
        raise ConfigError(f"--chain wants positive moduli, got {text!r}")
    return QuotientChain(rank, tuple((n,) * rank for n in ns))


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload, text, csv), and main records
# the parsed flags as the report's config; approx-chain builds its text and
# csv only when that format is asked for, and leaves the other None


def _group_json(group: FiniteGroup) -> dict:
    return {"kind": group.kind, "order": group.order}


def _run_mahler(args):
    p = _poly_input(args)
    out = mahler_measure(p, args.method, grid_size=args.grid_size)
    payload = {
        "polynomial": format_polynomial(p),
        "rank": p.rank,
        "resolved_method": out.method,
        "measure": out.as_json(),
    }
    text = "M = %r  (log M = %r, method %s, error <= %r)" % (
        out.value,
        out.log_value,
        out.method,
        out.error_estimate,
    )
    return payload, text, None


def _run_fkdet_zd(args):
    a = _zd_matrix(args)
    trace = fk_det_zd(a, args.method, grid_size=args.grid_size)
    if args.trace:
        payload = trace.as_json()
    else:
        payload = {
            "matrix": matrix_to_json(a),
            "q": trace.q,
            "value": trace.value.as_json(),
        }
    v = trace.value
    text = "det = %r  (method %s, error <= %r)" % (v.value, v.method, v.error_estimate)
    if v.exact is not None:
        text += "  exact %s" % v.exact
    return payload, text, None


def _run_fkdet_finite(args):
    group = _load_group(args)
    x = _finite_input(args, group)
    value, dim = fk_det_kernel_finite(x)
    if isinstance(x, FiniteGroupRingElement):
        described = {
            "kind": "element",
            "text": format_element(x),
            "coeffs": [_coeff_json(c) for c in x.coeffs],
        }
    else:
        described = {
            "kind": "matrix",
            "rows": x.rows,
            "cols": x.cols,
            "entries": [format_element(e) for row in x.entries for e in row],
        }
    payload = {
        "group": _group_json(group),
        "input": described,
        "kernel_dimension": str(dim),
        "value": value.as_json(),
    }
    text = "det = %r  (method %s, error <= %r)" % (
        value.value,
        value.method,
        value.error_estimate,
    )
    if value.exact is not None:
        text += "  exact %s" % value.exact
    return payload, text, None


def _search_space(args) -> SearchSpace:
    shape = _pair(args.shape, "--shape")
    common = {"shape": shape, "coeff_bound": args.coeff_bound, "support": args.support}
    if args.box is not None:
        box = tuple(_int_list(args.box, "--box"))
        rank = args.rank if args.rank is not None else len(box)
        return SearchSpace(rank=rank, box=box, **common)
    return SearchSpace(group=_load_group(args), **common)


def _witness_text(witness: dict | None) -> str:
    if witness is None:
        return "none"
    if witness["kind"] == "element":
        return witness["text"]
    return matrix_text(witness["entries"], witness["rows"], witness["cols"])


def _run_scan(args):
    if args.format == "csv" and not args.survey:
        raise ConfigError("csv output lists survey rows; pass --survey")
    space = _search_space(args)
    report = scan(
        space,
        args.variant,
        budget=args.budget,
        one_threshold=args.one_threshold,
        survey=args.survey,
    )
    payload = report.as_json()
    lines = ["variant %s, examined %d" % (report.variant, report.count_examined)]
    if report.infimum_found is None:
        lines.append("no candidate above 1 + threshold")
    else:
        inf = report.infimum_found
        entry = "infimum = %r" % inf.value
        if inf.exact is not None:
            entry += "  exact %s" % inf.exact
        lines.append(entry)
        lines.append("witness = %s" % _witness_text(report.witness))
    lines.append(
        "det one count = %d, budget exceeded = %s"
        % (report.count_det_one, report.budget_exceeded)
    )
    csv = survey_to_csv(report) if args.survey else None
    return payload, "\n".join(lines), csv


def _run_chain(args):
    a = _zd_matrix(args)
    chain = _build_chain(args, a.rank)
    seq = det_sequence(
        a,
        chain,
        tolerance=args.tolerance,
        measure_method=args.method,
        max_stage_order=args.max_stage_order,
    )
    payload = seq.as_json()
    csv = det_sequence_to_csv(seq) if args.format == "csv" else None
    if args.format != "text":
        return payload, None, csv
    lines = []
    for mods, order, value in zip(chain.moduli, chain.orders(), seq.values):
        lines.append("order %d  moduli %s  value %r" % (order, list(mods), value.value))
    ref = seq.limit_reference
    lines.append("reference = %r  (error <= %r)" % (ref.value, ref.error_estimate))
    lines.append("limsup_ok = %s" % seq.limsup_ok)
    gap = abs(seq.values[-1].value - ref.value)
    lines.append("approaching = %s  (final gap %r)" % (seq.approaching, gap))
    return payload, "\n".join(lines), csv


def _run_constants(args):
    group = _load_group(args)
    table = exact_constants(group)
    payload = {"group": _group_json(group), "constants": constants_to_json(table)}
    lines = []
    for variant in sorted(table):
        row = table[variant]
        if "exact" in row:
            lines.append("%s = %s" % (variant, row["exact"]))
        else:
            lines.append("%s in [%s, %s]" % (variant, row["lower"], row["upper"]))
    if args.torsion_order is not None:
        bound = torsion_bound_check(args.torsion_order)
        payload["torsion_bound"] = {"m": args.torsion_order, "value": bound}
        lines.append("torsion bound (m = %d): %r" % (args.torsion_order, bound))
    return payload, "\n".join(lines), None


def _run_trace_check(args):
    a = _zd_matrix(args)
    moduli = tuple(_int_list(args.moduli, "--moduli"))
    if min(moduli) < 1:
        raise ConfigError(f"--moduli wants positive moduli, got {args.moduli!r}")
    check = trace_match_check(a, args.degree, moduli)
    payload = check.as_json()
    payload["norm_bound"] = norm_bound(a)
    lines = [
        "ok = %s at moduli %s (degree %d)" % (check.ok, list(check.moduli), check.degree),
        "sufficient moduli = %s" % list(check.sufficient),
        "least matching multiple = %s" % list(check.least_multiple),
        "norm bound = %r" % payload["norm_bound"],
    ]
    return payload, "\n".join(lines), None


# ---------------------------------------------------------------------------
# parser assembly


def _add_zd_input(p) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", metavar="TEXT", help="inline polynomial, e.g. 'z - 2'")
    src.add_argument("--matrix-file", metavar="PATH", help="matrix as JSON")
    p.add_argument("--rank", type=int, help="variable count when the text leaves it open")


def _add_group_input(p, required: bool = True) -> None:
    src = p.add_mutually_exclusive_group(required=required)
    src.add_argument(
        "--cyclic", metavar="N[,M...]", help="cyclic group Z/N or a product of them"
    )
    src.add_argument(
        "--group-file", metavar="PATH", help="JSON with a multiplication table"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fkdet", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version="fkdet %s" % __version__
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    def add(name, help_text, handler, formats=("json", "text")):
        p = sub.add_parser(name, help=help_text, description=help_text)
        # by name: main looks the handler up when it runs, so a parser built
        # once still calls the module's current function
        p.set_defaults(handler=handler.__name__)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", metavar="PATH", help="write the report here, not stdout")
        return p

    p = add("mahler", "Mahler measure of a Laurent polynomial", _run_mahler)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", metavar="TEXT", help="inline polynomial")
    src.add_argument("--poly-file", metavar="PATH", help="file with one polynomial")
    p.add_argument("--rank", type=int, help="variable count when the text leaves it open")
    p.add_argument("--method", choices=MEASURE_METHODS, default="auto")
    p.add_argument(
        "--grid", type=int, default=256, dest="grid_size",
        help="quadrature points per axis",
    )

    p = add("fkdet-zd", "Fuglede-Kadison determinant over Z^d", _run_fkdet_zd)
    _add_zd_input(p)
    p.add_argument("--method", choices=MEASURE_METHODS, default="auto")
    p.add_argument(
        "--grid", type=int, default=256, dest="grid_size",
        help="quadrature points per axis",
    )
    p.add_argument(
        "--trace", action="store_true", help="include every pipeline intermediate"
    )

    p = add("fkdet-finite", "Fuglede-Kadison determinant over a finite group", _run_fkdet_finite)
    _add_group_input(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--elem", metavar="TEXT", help="element text, e.g. 't + 2'")
    src.add_argument("--coeffs", metavar="C0,C1,...", help="one integer per group element")
    src.add_argument("--matrix-file", metavar="PATH", help="matrix as JSON")

    p = add(
        "lehmer-scan",
        "exhaustive search for small determinants",
        _run_scan,
        formats=("json", "text", "csv"),
    )
    ring = p.add_mutually_exclusive_group(required=True)
    ring.add_argument("--cyclic", metavar="N[,M...]", help="cyclic group or product")
    ring.add_argument("--group-file", metavar="PATH", help="JSON multiplication table")
    ring.add_argument("--box", metavar="B1,B2,...", help="exponent box over Z^d")
    p.add_argument("--rank", type=int, help="with --box; defaults to the box length")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--shape", default="1,1", metavar="R,C", help="matrix shape")
    p.add_argument("--coeff-bound", type=int, default=1, help="max |coefficient|")
    p.add_argument("--support", type=int, help="max nonzero coefficient count")
    p.add_argument(
        "--budget",
        type=int,
        help="most candidates admitted (examined, and injective for the weak "
        "variants) before the scan stops",
    )
    p.add_argument("--one-threshold", type=float, default=DEFAULT_ONE_THRESHOLD)
    p.add_argument("--survey", action="store_true", help="collect values in (1, 1.5]")

    p = add(
        "approx-chain",
        "determinants along a chain of finite quotients",
        _run_chain,
        formats=("json", "text", "csv"),
    )
    _add_zd_input(p)
    p.add_argument(
        "--chain", default="2,4,8,16,32", metavar="LO..HI",
        help="moduli range or comma list",
    )
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--method", choices=MEASURE_METHODS, default="auto")
    p.add_argument("--max-stage-order", type=int, default=20000)

    p = add("exact-constants", "known Lehmer constants of a finite group", _run_constants)
    _add_group_input(p)
    p.add_argument(
        "--torsion-order",
        type=int,
        metavar="M",
        help="also report the torsion bound (M - 1)^(1/M)",
    )

    p = add("trace-check", "trace matching between Z^d and a finite quotient", _run_trace_check)
    _add_zd_input(p)
    p.add_argument("--degree", type=int, required=True, help="compare powers up to this")
    p.add_argument("--moduli", required=True, metavar="N1,N2,...", help="quotient moduli")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call shares.  parse_args leaves a parser as it
    was, so building it once per process (about 2 ms) loses nothing."""
    return build_parser()


# parsed arguments that are no setting of the run: the dispatch target and
# how and where the report is written
_OUTPUT_ONLY = ("handler", "format", "out")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config = {k: v for k, v in vars(args).items() if k not in _OUTPUT_ONLY}
    try:
        payload, text, csv = globals()[args.handler](args)
        # an exact radical's base can run past the 4 300 digits Python
        # writes by default (3**10000 - 1 at approx-chain order 10 000), so
        # the limit is lifted while the body is written; interpreters before
        # 3.10.7 have none
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            if args.format == "json":
                report = {
                    "schema_version": SCHEMA_VERSION,
                    "tool": {"name": "fkdet", "version": __version__},
                    "config": config,
                    "result": payload,
                }
                body = json_text(report) + "\n"
            elif args.format == "csv":
                body = csv
            else:
                body = text + "\n"
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(body)
            except OSError as exc:
                raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None
        else:
            sys.stdout.write(body)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except JensenRefusal as exc:
        # only the subcommands with a --method option can take the advice
        hint = "; use --method quadrature" if "method" in vars(args) else ""
        _emit_error("domain", f"{exc}{hint}")
        return 1
    except (ValueError, ArithmeticError) as exc:
        _emit_error("domain", exc)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
