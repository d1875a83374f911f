"""Command-line reporting tool.

Five subcommands: approx, primitive, identities, converge, bound.  Every
run emits a single report, as JSON (default) or CSV, to stdout or --out.

The JSON report shape, also exposed as REPORT_SCHEMA, is

    {"command": str, "expr": str, "params": {...},
     "poly": {"degree": int, "coeffs": [num]},
     "table": [[num]],
     "summary": {"max_error": num, "passed": bool}}

JSON output is the text json.dumps(report, indent=2, allow_nan=False)
gives, byte for byte, written by _json: each float is its repr, the
shortest text that reads back to the same double, and a list of floats
is one str.join over them, so a report of degree n costs about n + 1
float reprs (json.dumps itself falls back to its pure-Python encoder
when it indents).

CSV output carries the same report: '# key: <json>' metadata lines, then a
header row, then one record per table row.  params holds the subcommand's
flags but --emit, --out and --expr, in build_parser's order, then its
other fields, then columns.  The identities subcommand has no expression
or polynomial, so it reports expr "" and a degree-0 zero poly.

Exit codes: 0 success, 1 a verification reported FAIL, 2 usage or parse
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from .core import (
    MOMENT_KINDS,
    BernsteinPoly,
    EvaluationError,
    RealFunction,
    _basis_weight,
    basis_derivative,  # noqa: F401 -- unused here; perfbench/tracer.py wraps it too
    basis_eval,  # noqa: F401 -- unused here; perfbench/tracer.py wraps it too
    bernstein_approximant,
    eval_poly,  # noqa: F401 -- unused here; perfbench/tracer.py wraps bernprim.cli.eval_poly
    lipschitz_delta,
    moment_sum,  # noqa: F401 -- unused here; perfbench/tracer.py wraps it too
    moment_sums,
    poly_and_primitive_values,
    poly_values,
    primitive_approximant,
    required_degree,
    sup_norm_distance,  # noqa: F401 -- unused here; perfbench/tracer.py wraps it too
)
from .expr import ParseError, parse, to_real_function
from .quadrature import (
    central_difference,
    simpson,  # noqa: F401 -- unused here; perfbench/tracer.py wraps it too
    simpson_rows,
)

__all__ = ["main", "console_main", "build_parser", "REPORT_SCHEMA"]

MAX_DEGREE = 100_000
SUP_SAFETY = 1.01  # head-room factor on grid sup-norm estimates

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "expr", "params", "poly", "table", "summary"],
    "properties": {
        "command": {"type": "string"},
        "expr": {"type": "string"},
        "params": {"type": "object"},
        "poly": {
            "type": "object",
            "required": ["degree", "coeffs"],
            "properties": {
                "degree": {"type": "integer", "minimum": 0},
                "coeffs": {"type": "array", "items": {"type": "number"}},
            },
        },
        "table": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "summary": {
            "type": "object",
            "required": ["max_error", "passed"],
            "properties": {
                "max_error": {"type": "number"},
                "passed": {"type": "boolean"},
            },
        },
    },
}


class UsageError(Exception):
    """An argument that is valid on its own asks for more than the tool supports."""


IDENTITY_NAMES = ["derivative_vs_fd", "partition", "first_moment", "second_central_moment"]
IDENTITY_TOLERANCES = [1e-5, 1e-12, 1e-9, 1e-8]
EXPR_COMMANDS = ("approx", "primitive", "converge", "bound")  # the subcommands that take --expr


def _tabulate(count: int, f: RealFunction, panels: int | None = None) -> tuple[list[float], ...]:
    """The grid i/(count-1), i = 0..count-1, then Simpson's column if panels is given, then f's.

    Both columns come from f.values, which fails as one call per point in
    order fails.  The Simpson oracle goes before f: its row at x ends with
    f(x), so it meets first any x where f fails.
    """
    xs = [i / (count - 1) for i in range(count)]
    oracle = [simpson_rows(f.values, xs, panels)] if panels else []
    return (xs, *oracle, f.values(xs).tolist())


def _max_gap(values: np.ndarray, reference: list[float]) -> float:
    """max |value - reference value| over the points of a grid."""
    return float(np.max(np.abs(values - reference)))


_NOT_PARAMS = ("command", "run", "emit", "out", "expr")  # the parsed keys that are not params


def _report(
    args: argparse.Namespace,
    columns: list[str],
    poly: BernsteinPoly,
    table: list[list[float]],
    summary: dict,
    **extras,
) -> dict:
    """The report every subcommand emits; see REPORT_SCHEMA."""
    params = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMS}
    return {
        "command": args.command,
        "expr": getattr(args, "expr", ""),
        "params": {**params, **extras, "columns": columns},
        "poly": poly.to_dict(),
        "table": table,
        "summary": summary,
    }


# ---------------------------------------------------------------------------
# Subcommands


def cmd_approx(args: argparse.Namespace, f: RealFunction) -> dict:
    fn = bernstein_approximant(f, args.n)
    xs, fx = _tabulate(args.samples, f)
    rows = [[x, y, a, abs(y - a)] for x, y, a in zip(xs, fx, poly_values(fn, xs).tolist())]
    max_error = max(row[3] for row in rows)
    columns = ["x", "f", "f_n", "abs_error"]
    return _report(args, columns, fn, rows, {"max_error": max_error, "passed": True})


def cmd_primitive(args: argparse.Namespace, f: RealFunction) -> dict:
    fn_primitive = primitive_approximant(f, args.n)
    xs, oracle, fx = _tabulate(args.samples, f, args.panels)
    h = args.fd_h
    inner = [i for i, x in enumerate(xs) if x - h >= 0.0 and x + h <= 1.0]
    stencil = [t for i in inner for t in (xs[i] + h, xs[i] - h)]
    values = poly_values(fn_primitive, xs + stencil).tolist()
    rows = [[x, v, o, abs(v - o)] for x, v, o in zip(xs, values, oracle)]
    max_error = max(row[3] for row in rows)
    at = dict(zip(stencil, values[len(xs) :]))
    deriv_residuals = [abs(central_difference(at.__getitem__, xs[i], h) - fx[i]) for i in inner]
    columns = ["x", "F_n", "simpson_oracle", "abs_difference"]
    summary = {
        "max_error": max_error,
        "passed": True,
        "derivative_check_max": max(deriv_residuals) if deriv_residuals else 0.0,
    }
    return _report(args, columns, fn_primitive, rows, summary)


def _derivative_residual(rng: random.Random, n_max: int, grid: int) -> float:
    """One draw of identity 0: the basis derivative against a central difference."""
    n = rng.randint(1, min(50, n_max))
    m = rng.randint(0, n)
    x = rng.randint(1, grid - 2) / (grid - 1)  # x +- h stays in [0, 1]: grid <= MAX_DEGREE + 1
    h = 1e-6
    # central_difference and basis_derivative, on the unchecked weights:
    # the draws are in range by construction.
    fd = (_basis_weight(m, n, x + h) - _basis_weight(m, n, x - h)) / (2.0 * h)
    return abs(n * (_basis_weight(m - 1, n - 1, x) - _basis_weight(m, n - 1, x)) - fd)


def cmd_identities(args: argparse.Namespace) -> dict:
    rng = random.Random(args.seed)
    grid = args.grid
    worst = [max(_derivative_residual(rng, args.n_max, grid) for _ in range(grid))]
    # Identities 1-3 take all their (n, x) draws first, in rng order, and
    # sum them in one moment_sums call.
    ns, xs = np.empty(len(MOMENT_KINDS) * grid, dtype=np.intp), np.empty(len(MOMENT_KINDS) * grid)
    for k in range(ns.size):
        ns[k] = rng.randint(1, args.n_max)
        xs[k] = rng.randint(0, grid - 1) / (grid - 1)
    sums = moment_sums(ns, xs, [kind for kind in MOMENT_KINDS for _ in range(grid)])
    s, n, x = (np.reshape(values, (len(MOMENT_KINDS), grid)) for values in (sums, ns, xs))
    residuals = (
        np.abs(s[0] - 1.0),
        np.abs(s[1] - n[1] * x[1]) / n[1],
        np.abs(s[2] - n[2] * x[2] * (1.0 - x[2])) / n[2],
    )
    worst += [float(residual.max()) for residual in residuals]
    rows = [
        [float(index), residual, tolerance, 1.0 if residual < tolerance else 0.0]
        for index, (residual, tolerance) in enumerate(zip(worst, IDENTITY_TOLERANCES))
    ]
    columns = ["identity_index", "max_residual", "tolerance", "passed"]
    summary = {
        "max_error": max(row[1] for row in rows),
        "passed": all(row[3] == 1.0 for row in rows),
    }
    extras = {"draws_per_identity": grid, "identities": IDENTITY_NAMES}
    return _report(args, columns, BernsteinPoly(0, (0.0,)), rows, summary, **extras)


def cmd_converge(args: argparse.Namespace, f: RealFunction) -> dict:
    xs, oracle, fx = _tabulate(args.grid, f, args.panels)
    table = []
    for n in args.degrees:
        fn = bernstein_approximant(f, n)
        values, primitive = poly_and_primitive_values(fn, xs)
        table.append([float(n), _max_gap(values, fx), _max_gap(primitive, oracle)])
    rates = [
        math.log(e_a / e_b) / math.log(n_b / n_a) if e_a > 0.0 and e_b > 0.0 else 0.0
        for (n_a, e_a, _), (n_b, e_b, _) in zip(table, table[1:])
    ]
    columns = ["degree", "sup_error_fn", "sup_error_Fn"]
    summary = {"max_error": table[-1][1], "passed": True, "empirical_rates": rates}
    return _report(args, columns, fn, table, summary)


def cmd_bound(args: argparse.Namespace, f: RealFunction) -> dict:
    xs, fx = _tabulate(args.grid, f)
    sup_estimate = float(np.max(np.abs(fx)))
    sup_used = SUP_SAFETY * sup_estimate
    delta = lipschitz_delta(args.lipschitz, args.eps) if args.delta_flag is None else args.delta_flag
    try:
        # The zero function is reproduced at any degree.
        degree = 1 if sup_used == 0.0 else required_degree(sup_used, args.eps, delta)
    except (ArithmeticError, ValueError):
        # 4 * sup / (eps * delta^2) is beyond float range: delta or
        # eps * delta^2 underflowed to 0, or sup or the quotient overflowed.
        degree = math.inf
    if degree > MAX_DEGREE:
        # An exact degree can run to 309 digits; past 12 it is rounded.
        shown = f"{degree:.3e}" if 10**12 <= degree < math.inf else degree
        raise UsageError(f"required degree {shown} exceeds the supported maximum {MAX_DEGREE}")
    fn = bernstein_approximant(f, degree)
    measured = _max_gap(poly_values(fn, xs), fx)
    columns = ["eps", "delta", "required_degree", "measured_sup_error"]
    summary = {
        "max_error": measured,
        "passed": measured < args.eps,
        "delta": delta,
        "sup_norm_estimate": sup_estimate,
        "sup_bound_used": sup_used,
        "required_degree": degree,
    }
    table = [[args.eps, delta, float(degree), measured]]
    return _report(args, columns, fn, table, summary, sup_safety=SUP_SAFETY)


# ---------------------------------------------------------------------------
# Emission and entry point


def _non_finite_field(value, path: str = "") -> str | None:
    """Name the first NaN or infinity in a report, or in a part of one at path."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{path} is {value!r}"
    if isinstance(value, dict):
        fields = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        try:
            if all(map(math.isfinite, value)):  # a row of finite numbers
                return None
        except (TypeError, OverflowError):  # not a row of floats
            pass
        fields = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return None
    for where, item in fields:
        found = _non_finite_field(item, where)
        if found:
            return found
    return None


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, allow_nan=False), byte for byte, for a value free of nan and inf.

    main checks that with _non_finite_field first.  indent is the newline
    and indentation before value's closing bracket, and dict keys must be
    str.  A list of floats is one str.join over float.__repr__, the text
    json.dumps writes for each; any other list, and each dict, goes item
    by item.  A value of another type raises TypeError, as in json.dumps.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    if not isinstance(value, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        # encode_basestring_ascii refuses a key that is not a str.
        items = (f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    try:
        items = ("," + inner).join(map(float.__repr__, value))
    except TypeError:  # not a list of floats
        items = ("," + inner).join(_json(item, inner) for item in value)
    return "[" + inner + items + indent + "]"


def _emit_csv(report: dict) -> str:
    lines = []
    for key in ("command", "expr", "params", "poly", "summary"):
        lines.append(f"# {key}: {json.dumps(report[key], allow_nan=False)}")
    lines.append(",".join(report["params"]["columns"]))
    for row in report["table"]:
        lines.append(",".join(repr(float(cell)) for cell in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument types: every flag is range-checked here, at parse time, so a bad
# value exits 2 with argparse's usage message before any work starts.


def _checked(convert: Callable[[str], float], accept: Callable, wanted: str) -> Callable:
    """An argparse type: convert the text, then reject values accept() refuses."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value

    return check


def _int_in(lo: int, hi: float = math.inf, even: bool = False) -> Callable[[str], int]:
    """An integer in [lo, hi], optionally only even ones."""
    kind = "an even integer" if even else "an integer"
    return _checked(
        int, lambda v: lo <= v <= hi and not (even and v % 2), f"{kind} in [{lo}, {hi}]"
    )


def _real_in(hi: float = math.inf) -> Callable[[str], float]:
    """A finite real in (0, hi]; nan and inf are rejected."""
    return _checked(
        float, lambda v: 0.0 < v <= hi and math.isfinite(v), f"a finite real in (0, {hi}]"
    )


_degree = _int_in(1, MAX_DEGREE)
_count = _int_in(2, MAX_DEGREE + 1)
_panels = _int_in(2, MAX_DEGREE, even=True)


def _degree_list(text: str) -> list[int]:
    """An argparse type for a comma-separated, strictly increasing list of degrees."""
    degrees = [_degree(part) for part in text.split(",")]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise argparse.ArgumentTypeError(
            f"must list at least one degree, strictly increasing, got {text!r}"
        )
    return degrees


# argparse passes a string default through type= on every parse, so _seed
# reads BERN_SEED at each run, not when the parser is built, and a bad
# BERN_SEED is a usage error like a bad --seed.  The identity test keeps an
# argv value equal to this text from standing for the default.
_SEED_FROM_ENV = "<BERN_SEED or 0>"


def _seed(text: str) -> int:
    if text is _SEED_FROM_ENV:
        text = os.environ.get("BERN_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernprim",
        description="Bernstein approximants and their polynomial antiderivatives on [0, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run: Callable, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--emit", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to this file")
        if name in EXPR_COMMANDS:
            p.add_argument("--expr", required=True)
        p.set_defaults(run=run)
        return p

    p_approx = add("approx", cmd_approx, "evaluate the Bernstein approximant of --expr")
    p_approx.add_argument("--n", type=_degree, required=True)
    p_approx.add_argument("--samples", type=_count, default=11)

    p_prim = add("primitive", cmd_primitive, "build the polynomial antiderivative of --expr")
    p_prim.add_argument("--n", type=_degree, required=True)
    p_prim.add_argument("--samples", type=_count, default=11)
    p_prim.add_argument("--panels", type=_panels, default=256)
    p_prim.add_argument("--fd-h", type=_real_in(), default=1e-5, dest="fd_h")

    p_ident = add("identities", cmd_identities, "spot-check the basis identities")
    p_ident.add_argument("--n-max", type=_degree, default=200, dest="n_max")
    p_ident.add_argument("--grid", type=_int_in(3, MAX_DEGREE + 1), default=101)
    p_ident.add_argument("--seed", type=_seed, default=_SEED_FROM_ENV)

    p_conv = add("converge", cmd_converge, "sweep degrees and report sup errors")
    p_conv.add_argument("--degrees", type=_degree_list, required=True)
    p_conv.add_argument("--grid", type=_count, default=1001)
    p_conv.add_argument("--panels", type=_panels, default=256)

    p_bound = add("bound", cmd_bound, "degree sufficient for a target sup error")
    p_bound.add_argument("--eps", type=_real_in(), required=True)
    step = p_bound.add_mutually_exclusive_group(required=True)
    step.add_argument("--delta", type=_real_in(1.0), dest="delta_flag", metavar="DELTA")
    step.add_argument("--lipschitz", type=_real_in(), default=None)
    p_bound.add_argument("--grid", type=_count, default=1001)

    return parser


def _join_expr_values(argv: list[str]) -> list[str]:
    """argv with each `--expr VALUE` whose VALUE starts with one '-' written `--expr=VALUE`.

    argparse takes a word such as -x^2 for an unknown option, which leaves
    --expr without its value; joined, it is a value.  Only the
    subcommands of EXPR_COMMANDS are rewritten.  A word that starts with
    '--', and -h, stay options, so `--expr --n 3` is still the usage
    error it was.
    """
    if not argv or argv[0] not in EXPR_COMMANDS:
        return argv
    joined = []
    for word in argv:
        if joined and joined[-1] == "--expr" and word[:1] == "-" and word[:2] != "--" and word != "-h":
            joined[-1] = f"--expr={word}"
        else:
            joined.append(word)
    return joined


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use; it holds nothing of any argv."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(_join_expr_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # f is parsed and probed once, here, for the subcommands that take --expr.
        functions = [to_real_function(parse(args.expr))] if args.command in EXPR_COMMANDS else []
        report = args.run(args, *functions)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (EvaluationError, OverflowError, ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    non_finite = _non_finite_field(report)
    if non_finite:
        print(f"numeric failure: report field {non_finite}", file=sys.stderr)
        return 3
    if args.emit == "json":
        text = _json(report) + "\n"
    else:
        text = _emit_csv(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"usage error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report["summary"]["passed"] else 1


def console_main() -> None:
    raise SystemExit(main())
