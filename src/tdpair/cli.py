"""Command-line surface: config ingestion, subcommand dispatch, emission.

Subcommands:

  validate   print the constraint report for a parameter set
  build      emit one operator or change-of-basis matrix
  verify     run the verification suite
  overlap    emit overlap tables (general or degenerate kinds)
  limits     run the t -> 0 limit checks over the rational function field

Parameters come from a JSON file (--params) or from a seeded draw
(--shape with --seed), never both.  Every subcommand but validate refuses
a box of more than MAX_DIMENSION points, or a parameter (or --bound) with
a numerator or denominator of more than MAX_PARAMETER_BITS bits, before it
builds anything, and verify with the irreducibility check a box of more
than MAX_IRREDUCIBILITY_DIMENSION points; validate refuses more than
MAX_DIMENSION coordinates before it samples or validates.  Exit
status: 0 when every requested check passes, 1 when a check fails (or
overlap or build meets a vanishing denominator), 2 on malformed or
oversized configuration.
All rationals are printed as exact strings like "-3/7".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from .cob import COEFFICIENT_KINDS, coefficient_matrix
from .exactfield import ZeroDenominatorPochhammer, rational
from .multiindex import Shape
from .overlap import LIMIT_KINDS, T_METHODS, U_METHODS, _limit_kind_table, overlap_table
from .report import VerificationReport
from .tdcore import (
    ExactMatrix,
    InvalidParameters,
    OPERATOR_NAMES,
    TDParameters,
    _PARAM_KEYS,
    _ensure_valid,
    build_operator,
    parameters_from_json_obj,
    validate_parameters,
)
from .verify import CHECK_NAMES, SamplingExhausted, random_valid_parameters, run_suite

__all__ = ["main"]

FORMATS = ("text", "json", "csv")

# The largest box dimension d = prod(ell_p + 1) that build, verify, overlap
# and limits accept: the most a run can cost in under a minute.  Wall times
# at one coordinate, seed 1, 2-core host: the default verify suite took
# 0.8 s at d = 48, 5.1 s at d = 100 and 21 s at d = 144 (32-35 s at seeds 2
# and 3), growing about as d^3.2, so a quarter of an hour or more at the
# d = 441 of (20,20); `overlap --which both --method all` took 0.9, 4.1 and
# 12 s; limits and build stayed under 15 s.  validate takes no box, and
# refuses only more than MAX_DIMENSION coordinates: cond3 compares the 2N
# value strings pairwise, in process 0.1 s at N = 144 and 20-26 s at N =
# 2,000, while a box of N coordinates has at least 2^N points, so the other
# subcommands refuse N >= 8 already; the box dimension costs validate
# little even at d = 22,801.
MAX_DIMENSION = 144
# A lower limit for verify with the opt-in irreducibility check, which
# spans words in {A, A*} as d^2-long integer vectors.  Wall times of
# `verify --checks irreducibility`, seed 1, same host: 0.19 s at (2,1), d =
# 6; 0.51 s at (4,1), d = 10; 1.6 s at (3,2), d = 12; 3.8 s at (6,1), d =
# 14; 7.9 s at (4,2), d = 15; in process 13 s at (3,3), d = 16.  An echelon
# over Fractions took 9-12 s CPU at (3,2) and 52 s at (4,2).
MAX_IRREDUCIBILITY_DIMENSION = 15
# The longest numerator or denominator, in bits, of a parameter (and of
# --bound) that build, verify, overlap and limits accept.  Default verify
# suite, seed 1, --bound 2^b - 1, same host: at ell = (40,) 0.6 s at the
# default bound, 0.7 s at b = 8, 1.4 s at 16, 4.0 s at 32 and 11 s at 64
# (95 s with 100-digit rationals); at (143,) 106 s at 8 and 274 s at 16.
MAX_PARAMETER_BITS = 16
BUILD_TARGETS = OPERATOR_NAMES + COEFFICIENT_KINDS
OVERLAP_KINDS = ("racah",) + LIMIT_KINDS


class ConfigError(Exception):
    """Configuration the CLI cannot act on; maps to exit status 2."""


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", metavar="PATH", help="parameter JSON file")
    p.add_argument(
        "--shape",
        metavar="L1,L2,...",
        help="coordinate bounds for seeded parameter generation",
    )
    p.add_argument("--seed", type=int, help="seed for parameter generation")
    p.add_argument(
        "--bound",
        type=int,
        default=10,
        help="numerator/denominator bound for generated rationals (default 10)",
    )
    p.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output format (default text)",
    )


def _add_build(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--operator",
        choices=BUILD_TARGETS,
        required=True,
        help="operator (A, Astar, S, R, L) or coefficient family (C, Cbar, D, Dbar)",
    )


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--checks",
        default="standard",
        help='"standard", "all", or a comma-separated list of check names '
        "(the constraints check is always included)",
    )
    p.add_argument(
        "--beta",
        default="2",
        metavar="P/Q",
        help="coefficient of the middle cubic term in td_relations (default 2)",
    )


def _add_overlap(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--which",
        choices=("T", "U", "both"),
        default="T",
        help="which family to tabulate (default T)",
    )
    p.add_argument(
        "--method",
        choices=sorted(set(T_METHODS) | set(U_METHODS)) + ["all"],
        default=None,
        help="evaluation route, or all routes (general kind only)",
    )
    p.add_argument(
        "--kind",
        choices=OVERLAP_KINDS,
        default="racah",
        help="eigenvalue kind: the general one or a degenerate limit (default racah)",
    )


# each subcommand's help line and the options it adds to the common ones
_SUBCOMMANDS = {
    "validate": ("check the parameter constraints", None),
    "build": ("emit one matrix over the split basis", _add_build),
    "verify": ("run the verification suite", _add_verify),
    "overlap": ("emit overlap function tables", _add_overlap),
    "limits": ("verify the degenerate kinds as t -> 0 limits", None),
}


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with command only that one's
    options: the others stay bare entries, a name and a help line each, so
    the usage line, the top-level help and every error read as with the
    whole tree.  Built anew on each call; `main` passes the subcommand its
    argv names, the only one argparse can dispatch to."""
    parser = argparse.ArgumentParser(
        prog="tdpair",
        description="Exact construction and verification of tridiagonal pairs "
        "of the second eigenvalue type in the split basis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_own) in _SUBCOMMANDS.items():
        if command not in (None, name):
            sub.add_parser(name, help=help_line, add_help=False)
            continue
        p = sub.add_parser(name, help=help_line)
        _add_common(p)
        if add_own is not None:
            add_own(p)
    return parser


def _parse_shape(text: str) -> Shape:
    try:
        parts = [int(piece) for piece in text.split(",")]
        return Shape(parts)
    except ValueError as err:
        raise ConfigError(f"bad --shape {text!r}: {err}") from None


def _within_budget(args, shape: Shape, checks: Optional[list[str]], bits: int) -> None:
    # bits: the longest numerator or denominator of a parameter or of --bound
    if args.command == "validate":
        if shape.N > MAX_DIMENSION:
            raise ConfigError(f"{shape.N} coordinates exceed the limit {MAX_DIMENSION} of validate")
        return
    if bits > MAX_PARAMETER_BITS:
        raise ConfigError(f"a {bits}-bit rational exceeds the limit of {MAX_PARAMETER_BITS} bits")
    limit, scope = MAX_DIMENSION, args.command
    if "irreducibility" in (checks or ()):
        limit, scope = MAX_IRREDUCIBILITY_DIMENSION, "verify with the irreducibility check"
    # stop once past the limit: the whole d of thousands of coordinates is
    # slow to form and has too many digits to print
    d = 1
    for n, v in enumerate(shape.ell, 1):
        d *= v + 1
        if d > limit:
            size = f"= {d} of shape {shape.ell}" if n == shape.N else f">= {d} of a shape of {shape.N} coordinates"
            raise ConfigError(f"box dimension d {size} exceeds the limit {limit} of {scope}")


def _load_parameters(args, checks: Optional[list[str]] = None) -> TDParameters:
    """The parameter set of args; checks are verify's parsed --checks."""
    from_file = args.params is not None
    generated = args.shape is not None or args.seed is not None
    if from_file == generated:
        raise ConfigError("supply exactly one of --params or (--shape and --seed)")
    if from_file:
        try:
            with open(args.params, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read {args.params}: {err}") from None
        except ValueError as err:
            # malformed JSON, bytes that are not UTF-8, or an int literal of
            # more digits than Python converts
            raise ConfigError(f"invalid JSON in {args.params}: {err}") from None
        try:
            params = parameters_from_json_obj(obj)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"bad parameter document: {err}") from None
        values = [*(getattr(params, key) for key in _PARAM_KEYS), *params.a]
        bits = max(max(abs(v.numerator), v.denominator).bit_length() for v in values)
        _within_budget(args, params.shape, checks, bits)
        return params
    if args.shape is None or args.seed is None:
        raise ConfigError("generated mode needs both --shape and --seed")
    shape = _parse_shape(args.shape)
    _within_budget(args, shape, checks, args.bound.bit_length())
    if args.bound < 4:
        raise ConfigError("--bound must be at least 4")
    try:
        return random_valid_parameters(shape, seed=args.seed, bound=args.bound)
    except SamplingExhausted as err:
        raise ConfigError(str(err)) from None


# ---------------------------------------------------------------------------
# emission


def _csv_text(rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _matrix_text(m: ExactMatrix) -> str:
    rows = m.to_csv_rows()
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
    ]
    return "\n".join(lines) + "\n"


def _emit_matrix(m: ExactMatrix, fmt: str) -> str:
    if fmt == "json":
        return _json_text(m.to_json_obj())
    if fmt == "csv":
        return _csv_text(m.to_csv_rows())
    return _matrix_text(m)


def _report_csv_rows(report: VerificationReport) -> list[list[str]]:
    rows = [["check", "paper_ref", "pass", "witness", "millis"]]
    for r in report.results:
        rows.append(
            [
                r.check,
                r.paper_ref,
                r.status_word(),
                "" if r.witness is None else json.dumps(r.witness),
                str(r.millis),
            ]
        )
    return rows


def _emit_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report.to_json_obj())
    if fmt == "csv":
        return _csv_text(_report_csv_rows(report))
    return report.to_text() + "\n"


def _emit_tables(tables: Sequence[tuple[str, ExactMatrix]], fmt: str) -> str:
    if fmt == "json":
        return _json_text(
            {"tables": [{"label": label, **m.to_json_obj()} for label, m in tables]}
        )
    blocks = []
    for label, m in tables:
        body = _csv_text(m.to_csv_rows()) if fmt == "csv" else _matrix_text(m)
        blocks.append(f"# {label}\n{body}")
    return "\n".join(blocks)


# ---------------------------------------------------------------------------
# subcommands; each returns (output text, exit status)


def _cmd_validate(args) -> tuple[str, int]:
    params = _load_parameters(args)
    report = validate_parameters(params)
    return _emit_report(report, args.format), 0 if report.passed else 1


def _cmd_build(args) -> tuple[str, int]:
    params = _load_parameters(args)
    if args.operator in OPERATOR_NAMES:
        m = build_operator(params, args.operator)
    else:
        _ensure_valid(params)
        m = coefficient_matrix(params, args.operator)
    return _emit_matrix(m, args.format), 0


def _parse_checks(text: str) -> Optional[list[str]]:
    if text == "standard":
        return None
    if text == "all":
        return list(CHECK_NAMES)
    names = [piece.strip() for piece in text.split(",")]
    if not all(names):
        raise ConfigError(f"bad --checks {text!r}: empty check name")
    unknown = [n for n in names if n not in CHECK_NAMES]
    if unknown:
        raise ConfigError(
            f"unknown checks: {', '.join(unknown)}; expected among {CHECK_NAMES}"
        )
    # keep exit status truthful when the parameter set is invalid
    if "constraints" not in names:
        names.insert(0, "constraints")
    return names


def _cmd_verify(args) -> tuple[str, int]:
    try:
        beta = rational(args.beta)
    except ValueError as err:
        raise ConfigError(f"bad --beta: {err}") from None
    checks = _parse_checks(args.checks)
    params = _load_parameters(args, checks)
    report = run_suite(params, checks=checks, beta=beta)
    return _emit_report(report, args.format), 0 if report.passed else 1


def _overlap_methods(which: str) -> tuple[str, ...]:
    return T_METHODS if which == "T" else U_METHODS


def _cmd_overlap(args) -> tuple[str, int]:
    which_list = ["T", "U"] if args.which == "both" else [args.which]
    if args.kind != "racah":
        if args.method is not None:
            raise ConfigError("--method applies to the general kind only")
        if args.which != "T":
            raise ConfigError("degenerate kinds tabulate T only")
    params = _load_parameters(args)
    tables: list[tuple[str, ExactMatrix]] = []
    if args.kind != "racah":
        tables.append((f"T {args.kind}", _limit_kind_table(params, args.kind)))
    else:
        for which in which_list:
            methods = (
                _overlap_methods(which)
                if args.method == "all"
                else (args.method or _overlap_methods(which)[0],)
            )
            for method in methods:
                if method not in _overlap_methods(which):
                    raise ConfigError(f"method {method!r} does not compute {which}")
                tables.append(
                    (f"{which} {method}", overlap_table(params, which, method))
                )
    return _emit_tables(tables, args.format), 0


def _cmd_limits(args) -> tuple[str, int]:
    params = _load_parameters(args)
    report = run_suite(params, checks=["constraints", "limits"])
    return _emit_report(report, args.format), 0 if report.passed else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "build": _cmd_build,
    "verify": _cmd_verify,
    "overlap": _cmd_overlap,
    "limits": _cmd_limits,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option that takes a value, so its first
    # word not starting with "-" is the subcommand argparse dispatches to
    named = next((word for word in argv if not word.startswith("-")), None)
    parser = _build_parser(named if named in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        output, status = _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"tdpair: {err}", file=sys.stderr)
        return 2
    except InvalidParameters as err:
        print(f"tdpair: {err}", file=sys.stderr)
        print(err.report.to_text(), file=sys.stderr)
        return 1
    except ZeroDenominatorPochhammer as err:
        # a valid parameter set where the requested formula is undefined
        print(f"tdpair: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
