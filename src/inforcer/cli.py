"""Command line front end.

Subcommands: compute, list, verify, dual, sweep. Vectors are given
inline ("0.2,0.8"), as a CSV file (one value per line, optional header),
or as a JSON array file. Values print with 12 significant digits in
plain/CSV output and full precision in JSON; all logarithms are base 2
unless --nats converts the final value by ln 2.

Exit codes: 0 success, 1 usage, 2 domain or constraint violation,
3 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import registry
from .core import Distribution, UtilityVector, WeightVector, make_distribution
from .engine import PolyParams, entropy, verify_composability
from .errors import InforcerError, NotNormalized, ParseError, UsageError

_PARAM_FLAGS = ("alpha", "beta", "gamma", "mu", "tau", "lam", "c", "e", "betas")


def _shown(x: float) -> float:
    """x with the sign of a zero cleared (tau * 0 is -0.0 for tau < 0)."""
    return float(x) + 0.0


def format_number(x: float) -> str:
    """12 significant digits; integral values keep a trailing .0."""
    s = f"{_shown(x):.12g}"
    if all(ch.isdigit() or ch in "+-" for ch in s):
        s += ".0"
    return s


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -1.5 as values, so "--tau -1e0" and
        # "--grid -0.5,0.5" would stop with "expected one argument". No
        # option here starts with "-" and a digit, so take every argument
        # that does (or "-." and a digit) as a value. Subparsers are
        # built from this class and inherit it.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):  # argparse would sys.exit(2)
        raise UsageError(message)


def _parse_inline(text: str, what: str) -> np.ndarray:
    parts = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not parts:
        raise ParseError(f"{what}: empty vector")
    try:
        return np.array([float(piece) for piece in parts], dtype=float)
    except ValueError:
        raise ParseError(f"{what}: could not parse {text!r} as comma-separated numbers") from None


def _parse_csv_file(path: Path, what: str) -> np.ndarray:
    text = path.read_text()
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines:
        raise ParseError(f"{what}: {path} is empty")
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        lines = lines[1:]  # header row
        if not lines:
            raise ParseError(f"{what}: {path} holds only a header") from None
    pieces = [s for ln in lines for s in map(str.strip, ln.split(",")) if s] if "," in text else lines
    try:
        return np.array(pieces, dtype=float)  # converts each str as float() does
    except ValueError:
        for piece in pieces:  # name the bad entry
            try:
                float(piece)
            except ValueError:
                raise ParseError(f"{what}: bad number {piece!r} in {path}") from None
        raise


def read_vector(source: str, what: str) -> np.ndarray:
    """Inline comma-separated numbers, or a path to a CSV/JSON file.

    Text that parses as numbers is inline and never reaches the
    filesystem; a path that cannot be read is a ParseError.
    """
    try:
        return _parse_inline(source, what)
    except ParseError as err:
        inline_error = err
    path = Path(source)
    try:
        if source and path.is_dir():  # Path("") is ".", but "" is an empty vector
            raise ParseError(f"{what}: cannot read {source[:80]!r}: is a directory")
        if not path.is_file():
            raise inline_error
        if path.suffix.lower() == ".json":
            try:  # a ValueError also for integers of more digits than int() takes
                data = json.loads(path.read_text())
            except (ValueError, RecursionError) as err:
                raise ParseError(f"{what}: {path} is not valid JSON: {err}") from None
            # type, not isinstance: JSON true and false are bools, and bool is an int
            if not isinstance(data, list) or not all(type(x) in (int, float) for x in data):
                raise ParseError(f"{what}: {path} must hold a JSON array of numbers")
            try:
                return np.array(data, dtype=float)
            except OverflowError:
                raise ParseError(f"{what}: {path} holds an integer beyond the double range") from None
        return _parse_csv_file(path, what)
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise ParseError(f"{what}: cannot read {source[:80]!r}: {reason}") from None


def _maybe_renormalize(arr: np.ndarray, renormalize: bool, what: str) -> np.ndarray:
    if not renormalize:
        return arr
    with np.errstate(over="ignore"):  # an inf sum is rejected below
        total = float(np.add.reduce(arr))
    if not (math.isfinite(total) and total > 0.0):
        raise NotNormalized(f"{what}: cannot renormalize, sum is {total!r}")
    return arr / total


def read_distribution(source: str, renormalize: bool = False, what: str = "p") -> Distribution:
    return make_distribution(_maybe_renormalize(read_vector(source, what), renormalize, what))


def read_weights(source: str, renormalize: bool = False, what: str = "u") -> WeightVector:
    return WeightVector(_maybe_renormalize(read_vector(source, what), renormalize, what))


def _add_vector_args(sub, *, q: bool = False, second_weights: bool = False):
    sub.add_argument("--p", required=True, help="distribution P (inline or file)")
    if q:
        sub.add_argument("--q", required=True, help="distribution Q (inline or file)")
    sub.add_argument("--u", help="external weights for P")
    if second_weights:
        sub.add_argument("--u2", help="external weights for Q")
    sub.add_argument("--v", help="utilities for P")
    if second_weights:
        sub.add_argument("--v2", help="utilities for Q")
    sub.add_argument("--renormalize", action="store_true",
                     help="divide distributions and weights by their sum before validating")


def _add_param_args(sub):
    for name in ("alpha", "beta", "gamma", "mu", "tau", "c", "e"):
        sub.add_argument(f"--{name}", type=float, default=None)
    sub.add_argument("--lambda", dest="lam", type=float, default=None)
    sub.add_argument("--betas", default=None, help="comma-separated per-component exponents")


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = _Parser(prog="inforcer", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    comp = subs.add_parser("compute", help="evaluate one measure")
    comp.add_argument("--measure", help="catalog row name")
    comp.add_argument("--raw", action="store_true", help="use raw engine parameters instead of a named row")
    comp.add_argument("--family", choices=("information", "inaccuracy", "certainty"),
                      help="measure family for --raw")
    _add_param_args(comp)
    _add_vector_args(comp)
    comp.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    comp.add_argument("--nats", action="store_true", help="convert the result by ln 2")

    lst = subs.add_parser("list", help="print the measure catalog")
    lst.add_argument("--format", choices=("plain", "json", "csv"), default="plain")

    ver = subs.add_parser("verify", help="check composability on a product of two inputs")
    ver.add_argument("--measure", required=True)
    _add_param_args(ver)
    _add_vector_args(ver, q=True, second_weights=True)
    ver.add_argument("--tolerance", type=float, default=1e-9)
    ver.add_argument("--format", choices=("plain", "json", "csv"), default="plain")

    dua = subs.add_parser("dual", help="check a certainty row against its information counterpart")
    dua.add_argument("--measure", required=True)
    _add_param_args(dua)
    _add_vector_args(dua)
    dua.add_argument("--tolerance", type=float, default=1e-9)
    dua.add_argument("--format", choices=("plain", "json", "csv"), default="plain")

    swe = subs.add_parser("sweep", help="evaluate one measure over a parameter grid (CSV output)")
    swe.add_argument("--measure", required=True)
    swe.add_argument("--param", required=True, help="name of the parameter to sweep")
    swe.add_argument("--grid", required=True, help="comma-separated, strictly monotone grid")
    _add_param_args(swe)
    _add_vector_args(swe)
    swe.add_argument("--nats", action="store_true", help="convert results by ln 2")

    return parser


def _collected_params(args) -> dict:
    params = {}
    for name in _PARAM_FLAGS:
        value = getattr(args, name, None)
        if value is None:
            continue
        if name == "betas":
            params[name] = _parse_inline(value, "betas")
        else:
            params[name] = value
    return params


def _load_vectors(args, *, second: bool = False):
    p = read_distribution(args.p, args.renormalize, "p")
    u = read_weights(args.u, args.renormalize, "u") if args.u else None
    v = UtilityVector(read_vector(args.v, "v")) if args.v else None
    if not second:
        return p, u, v
    q = read_distribution(args.q, args.renormalize, "q")
    u2 = read_weights(args.u2, args.renormalize, "u2") if args.u2 else None
    v2 = UtilityVector(read_vector(args.v2, "v2")) if args.v2 else None
    return p, u, v, q, u2, v2


def _flag(name: str) -> str:
    """The name the CLI gives a catalog parameter: lam is set by --lambda."""
    return "lambda" if name == "lam" else name


def _display_params(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        out[_flag(key)] = list(map(float, value)) if isinstance(value, np.ndarray) else value
    return out


def _engine_dict(ep: PolyParams) -> dict:
    return {"tau": ep.tau, "lambda": ep.lam, "c": ep.c, "e": ep.e}


def _emit_report(args, report, fields: dict) -> int:
    numbers = {k: _shown(getattr(report, k)) for k in ("lhs", "rhs", "abs_err", "rel_err", "tolerance")}
    if args.format == "json":
        print(json.dumps({**fields, **numbers, "passed": report.passed}))
    else:
        shown = {**fields, **{k: format_number(v) for k, v in numbers.items()},
                 "status": "PASS" if report.passed else "FAIL"}
        if args.format == "csv":
            _print_csv([list(shown), list(shown.values())])
        else:
            for key, value in shown.items():
                print(f"{key}: {value}")
    return 0 if report.passed else 3


def _print_csv(rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _cmd_compute(args) -> int:
    p, u, v = _load_vectors(args)
    params = _collected_params(args)
    if args.raw:
        if args.measure:
            raise UsageError("--raw and --measure are mutually exclusive")
        if not args.family:
            raise UsageError("--raw needs --family")
        if args.tau is None:
            raise UsageError("--raw needs --tau")
        stray = [f"--{k}" for k in params if k not in ("tau", "lam", "c", "e")]
        if args.v is not None:
            stray.append("--v")
        if stray:
            raise UsageError(f"--raw takes no catalog parameters; drop {', '.join(stray)}")
        default_e = 1.0 if args.family == "certainty" else 0.0
        ep = PolyParams(
            tau=args.tau,
            lam=args.lam if args.lam is not None else 0.0,
            c=args.c if args.c is not None else 1.0,
            e=args.e if args.e is not None else default_e,
        )
        value = entropy(p, "self" if u is None else ("external", u), family=args.family,
                        tau=ep.tau, lam=ep.lam, c=ep.c, e=ep.e)
        name = "raw"
        shown_params = {"family": args.family}
    else:
        if not args.measure:
            raise UsageError("give --measure NAME or --raw")
        spec = registry.lookup(args.measure)
        ps = spec.check_params(params)
        value = spec.evaluate(ps, p, u, v)
        ep = spec.engine_params(ps)
        name = spec.name
        shown_params = _display_params(params)
    unit = "nats" if args.nats else "bits"
    if args.nats:
        value = value * math.log(2.0)
    if args.format == "json":
        print(json.dumps({
            "measure": name,
            "value": _shown(value),
            "params": shown_params,
            "engine": _engine_dict(ep),
            "n": len(p),
            "unit": unit,
        }))
    elif args.format == "csv":
        _print_csv([["measure", "value"], [name, format_number(value)]])
    else:
        print(format_number(value))
    return 0


def _cmd_list(args) -> int:
    specs = registry.list_measures()
    if args.format == "json":
        records = [
            {
                "name": s.name,
                "family": s.family,
                "params": list(s.params),
                "weights": s.weight_rule,
                "constraints": s.constraints,
                "formula": s.formula,
                "needs_weights": s.needs_weights,
                "needs_utilities": s.needs_utilities,
            }
            for s in specs
        ]
        print(json.dumps(records))
    elif args.format == "csv":
        rows = [["name", "family", "params", "weights", "constraints"]]
        rows += [[s.name, s.family, ";".join(s.params), s.weight_rule, s.constraints] for s in specs]
        _print_csv(rows)
    else:
        for s in specs:
            params = ", ".join(s.params) if s.params else "-"
            print(f"{s.name}  [{s.family}]  params: {params}  weights: {s.weight_rule}  constraints: {s.constraints}")
    return 0


def _cmd_verify(args) -> int:
    if args.tolerance <= 0 or not math.isfinite(args.tolerance):
        raise UsageError("--tolerance must be positive")
    p, u, v, q, u2, v2 = _load_vectors(args, second=True)
    params = _collected_params(args)
    spec = registry.lookup(args.measure)
    ps = spec.check_params(params)
    w1 = spec.build_weights(p, ps, u, v)
    w2 = spec.build_weights(q, ps, u2, v2)
    report = verify_composability(spec.family, spec.engine_params(ps), w1, p, w2, q, tolerance=args.tolerance)
    return _emit_report(args, report, {"check": "composability", "measure": spec.name})


def _cmd_dual(args) -> int:
    if args.tolerance <= 0 or not math.isfinite(args.tolerance):
        raise UsageError("--tolerance must be positive")
    p, u, v = _load_vectors(args)
    params = _collected_params(args)
    report, counterpart = registry.dual_verify(
        args.measure, p, weights=u, utilities=v, tolerance=args.tolerance, **params
    )
    return _emit_report(args, report, {"check": "duality", "measure": args.measure, "counterpart": counterpart})


def _cmd_sweep(args) -> int:
    try:
        grid = _parse_inline(args.grid, "grid")
    except ParseError as err:  # the grid is part of the invocation itself
        raise UsageError(str(err)) from None
    if not np.all(np.isfinite(grid)):
        raise UsageError("sweep grid must be finite")
    if grid.size > 1:
        diffs = np.diff(grid)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise UsageError("sweep grid must be strictly monotone")
    spec = registry.lookup(args.measure)
    param = next((name for name in spec.params if _flag(name) == args.param), args.param)
    if param not in spec.params:
        raise UsageError(
            f"{spec.name} has no parameter {args.param!r}; choose from: "
            + (", ".join(map(_flag, spec.params)) if spec.params else "none")
        )
    p, u, v = _load_vectors(args)
    values = registry.evaluate_named(
        args.measure, p, weights=u, utilities=v, sweep=(param, grid), **_collected_params(args)
    )
    rows = []
    for g, value in zip(grid, values):
        if isinstance(value, InforcerError):
            rows.append([format_number(g), "", f"{type(value).__name__}: {value}"])
        else:
            rows.append([format_number(g), format_number(value * math.log(2.0) if args.nats else value), ""])
    header = [_flag(param), "value", "error"]
    if not any(row[2] for row in rows):
        header, rows = header[:2], [row[:2] for row in rows]
    rows.insert(0, header)
    _print_csv(rows)
    return 0


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "dual":
            return _cmd_dual(args)
        return _cmd_sweep(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except InforcerError as err:
        print(f"error[{type(err).__name__}]: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
