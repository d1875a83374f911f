"""Correctness checks for bernprim reports, against independent references.

The references share no code with bernprim: expressions are evaluated
by the mpmath lambdas of workloads.Expr, Bernstein sums are formed term
by term in 30-digit arithmetic, and abs(x - c) and x^2 use exact closed
forms.  check() returns the largest absolute gap between the report's
numbers and the reference (result_err_max), or a message naming the
first check that failed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
from mpmath import mpf

from workloads import Case, Expr

RESULT_ERR_TOL = 1e-9  # absolute: every referenced number is O(1) and rounding-level exact
DPS = 30
IDENTITY_TOLERANCES = [1e-5, 1e-12, 1e-9, 1e-8]
SUP_SAFETY = 1.01


class Mismatch(Exception):
    """A report disagrees with what the benchmark expects."""


def stderr_class(text: str) -> str:
    if "Traceback" in text:
        return "traceback"
    if text.startswith("parse error"):
        return "parse"
    if text.startswith("numeric failure"):
        return "numeric"
    if text.startswith("usage error") or (text.startswith("usage:") and "error:" in text):
        return "usage"
    return "other"


def parse_report(text: str, csv: bool) -> dict:
    if not csv:
        return json.loads(text)
    lines = text.splitlines()
    report = {}
    i = 0
    while lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(": ")
        report[key] = json.loads(value)
        i += 1
    if lines[i].split(",") != report["params"]["columns"]:
        raise Mismatch(f"csv header {lines[i]!r} differs from params.columns")
    report["table"] = [[float(cell) for cell in line.split(",")] for line in lines[i + 1 :]]
    return report


def _flag(argv: tuple[str, ...], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


# ---------------------------------------------------------------------------
# Independent numbers


def bernstein_sum(coeffs: list, x: mpf) -> mpf:
    """sum_m c_m C(n,m) x^m (1-x)^(n-m), weight by weight."""
    n = len(coeffs) - 1
    if x == 0:
        return coeffs[0]
    if x == 1:
        return coeffs[-1]
    weight = (1 - x) ** n
    ratio = x / (1 - x)
    total = coeffs[0] * weight
    for m in range(n):
        weight = weight * (n - m) / (m + 1) * ratio
        total += coeffs[m + 1] * weight
    return total


def _q(value: Fraction) -> mpf:
    return mpf(value.numerator) / value.denominator


def _samples(f: Expr, n: int) -> list:
    return [f.mp(mpf(m / n)) for m in range(n + 1)]


def _primitive_coeffs(samples: list) -> list:
    n = len(samples) - 1
    coeffs = [mpf(0)]
    for value in samples:
        coeffs.append(coeffs[-1] + value)
    return [c / (n + 1) for c in coeffs]


def _simpson(f: Expr, upper: float, panels: int) -> mpf:
    """Composite Simpson on the CLI's own float nodes upper * (i / panels)."""
    if upper == 0.0:
        return mpf(0)
    total = mpf(0)
    for i in range(panels + 1):
        weight = 1 if i in (0, panels) else (4 if i % 2 else 2)
        total += weight * f.mp(mpf(upper * (i / panels)))
    return mpf(upper) / panels / 3 * total


def _grid(count: int) -> list[float]:
    return [i / (count - 1) for i in range(count)]


def kink_error(n: int, c: Fraction) -> Fraction:
    """E|K/n - c| for K ~ Binomial(n, c): f_n(c) - f(c) for f = |x - c|, exactly.

    It is also the sup over [0, 1] of f_n - f, attained at x = c.
    """
    p, q = c.numerator, c.denominator
    total = sum(abs(m * q - n * p) * math.comb(n, m) * p**m * (q - p) ** (n - m) for m in range(n + 1))
    return Fraction(total, n * q * q**n)


def _sup_fn_error(f: Expr, n: int, grid: int) -> mpf:
    """max over the grid of |f_n - f|."""
    if f.closed == "square":  # f_n - f = x(1-x)/n, largest at the grid point nearest 1/2
        return _q(max(Fraction(i, grid - 1) * (1 - Fraction(i, grid - 1)) for i in ((grid - 1) // 2, grid // 2)) / n)
    if f.closed == "kink" and (f.kink * (grid - 1)).denominator == 1:
        return _q(kink_error(n, f.kink))
    samples = _samples(f, n)
    return max(abs(bernstein_sum(samples, mpf(x)) - f.mp(mpf(x))) for x in _grid(grid))


def _sup_Fn_error(f: Expr, n: int, grid: int, panels: int) -> mpf | None:
    """max over the grid of |F_n - Simpson|, or None where no reference is affordable."""
    if f.closed == "square":  # Simpson is exact on x^3/3; F_n - x^3/3 = (x^2/2 - x^3/3)/n rises to 1/(6n)
        return mpf(1) / (6 * n)
    if grid * panels > 20000:
        return None
    coeffs = _primitive_coeffs(_samples(f, n))
    return max(abs(bernstein_sum(coeffs, mpf(x)) - _simpson(f, x, panels)) for x in _grid(grid))


# ---------------------------------------------------------------------------
# Per-command checks


class _Gap:
    def __init__(self) -> None:
        self.max = 0.0

    def near(self, what: str, got, want) -> None:
        gap = float(abs(mpf(got) - want))
        if not gap <= RESULT_ERR_TOL:
            raise Mismatch(f"{what}: report {got!r}, reference {mpmath.nstr(want, 17)}")
        self.max = max(self.max, gap)

    def same(self, what: str, got, want) -> None:
        if got != want:
            raise Mismatch(f"{what}: report {got!r}, expected {want!r}")


def _check_approx(case: Case, report: dict, gap: _Gap) -> None:
    f, argv = case.expr, case.argv
    n, count = int(_flag(argv, "--n")), int(_flag(argv, "--samples", "11"))
    samples = _samples(f, n)
    for j, c in enumerate(report["poly"]["coeffs"]):
        gap.near(f"coefficient {j}", c, samples[j])
    worst = mpf(0)
    for i, (row, x) in enumerate(zip(report["table"], _grid(count))):
        exact, approx = f.mp(mpf(x)), bernstein_sum(samples, mpf(x))
        gap.same(f"row {i} x", row[0], x)
        gap.near(f"row {i} f", row[1], exact)
        gap.near(f"row {i} f_n", row[2], approx)
        gap.near(f"row {i} abs_error", row[3], abs(exact - approx))
        worst = max(worst, abs(exact - approx))
    gap.near("max_error", report["summary"]["max_error"], worst)


def _check_primitive(case: Case, report: dict, gap: _Gap) -> None:
    f, argv = case.expr, case.argv
    n, count = int(_flag(argv, "--n")), int(_flag(argv, "--samples", "11"))
    panels = int(_flag(argv, "--panels", "256"))
    coeffs = _primitive_coeffs(_samples(f, n))
    for j in range(0, n + 2, case.row_step):
        gap.near(f"coefficient {j}", report["poly"]["coeffs"][j], coeffs[j])
    for i, (row, x) in enumerate(zip(report["table"], _grid(count))):
        gap.same(f"row {i} x", row[0], x)
        if i % case.row_step:
            continue
        if f.closed == "square":
            t = Fraction(x)
            value, oracle = _q(t**3 / 3 + (t**2 / 2 - t**3 / 3) / n), _q(t**3 / 3)
        else:
            value, oracle = bernstein_sum(coeffs, mpf(x)), _simpson(f, x, panels)
        gap.near(f"row {i} F_n", row[1], value)
        gap.near(f"row {i} simpson_oracle", row[2], oracle)
        gap.near(f"row {i} abs_difference", row[3], abs(value - oracle))
    gap.same("max_error", report["summary"]["max_error"], max(row[3] for row in report["table"]))


def _check_converge(case: Case, report: dict, gap: _Gap) -> None:
    f, argv = case.expr, case.argv
    degrees = [int(part) for part in _flag(argv, "--degrees").split(",")]
    grid, panels = int(_flag(argv, "--grid", "1001")), int(_flag(argv, "--panels", "256"))
    table = report["table"]
    gap.same("degrees", [row[0] for row in table], [float(n) for n in degrees])
    errors = []
    for row, n in zip(table, degrees):
        errors.append(_sup_fn_error(f, n, grid))
        gap.near(f"degree {n} sup_error_fn", row[1], errors[-1])
        reference_Fn = _sup_Fn_error(f, n, grid, panels)
        if reference_Fn is not None:
            gap.near(f"degree {n} sup_error_Fn", row[2], reference_Fn)
    rates = report["summary"]["empirical_rates"]
    for k, rate in enumerate(rates):
        want = mpmath.log(errors[k] / errors[k + 1]) / mpmath.log(mpf(degrees[k + 1]) / degrees[k])
        gap.near(f"empirical rate {k}", rate, want)
    gap.same("max_error", report["summary"]["max_error"], table[-1][1])
    n = degrees[-1]
    for j in range(0, n + 1, max(1, n // 64)):
        gap.near(f"coefficient {j}", report["poly"]["coeffs"][j], f.mp(mpf(j / n)))


def _check_bound(case: Case, report: dict, gap: _Gap) -> None:
    f, argv = case.expr, case.argv
    eps, lipschitz = float(_flag(argv, "--eps")), float(_flag(argv, "--lipschitz"))
    grid = int(_flag(argv, "--grid", "1001"))
    delta = min(1.0, eps / (2.0 * lipschitz))
    if f.closed == "kink":
        sup = _q(max(f.kink, 1 - f.kink))  # |x - c| peaks at an end of the grid
    else:
        sup = max(abs(f.mp(mpf(x))) for x in _grid(grid))
    bound = 4 * mpf(SUP_SAFETY) * sup / (mpf(eps) * mpf(delta) ** 2)
    allowed = {int(mpmath.floor(bound)) + 1}
    if abs(bound - mpmath.nint(bound)) <= 1e-6 * bound:  # the CLI snaps near-integers
        allowed.add(int(mpmath.nint(bound)) + 1)
    eps_row, delta_row, degree_row, measured = report["table"][0]
    degree = report["summary"]["required_degree"]
    if degree not in allowed or degree_row != float(degree):
        raise Mismatch(f"required degree {degree}, reference {sorted(allowed)}")
    gap.same("eps", eps_row, eps)
    gap.near("delta", delta_row, mpf(delta))
    gap.near("sup_norm_estimate", report["summary"]["sup_norm_estimate"], sup)
    error = _sup_fn_error(f, degree, grid)
    gap.near("measured_sup_error", measured, error)
    gap.same("passed", report["summary"]["passed"], measured < eps)
    for j in range(0, degree + 1, max(1, degree // 64)):
        gap.near(f"coefficient {j}", report["poly"]["coeffs"][j], f.mp(mpf(j / degree)))


def _check_identities(case: Case, report: dict, gap: _Gap) -> None:
    table = report["table"]
    gap.same("identity rows", [row[0] for row in table], [0.0, 1.0, 2.0, 3.0])
    gap.same("tolerances", [row[2] for row in table], IDENTITY_TOLERANCES)
    for row in table:
        gap.same(f"identity {row[0]} passed", row[3], 1.0 if row[1] < row[2] else 0.0)
    gap.same("passed", report["summary"]["passed"], all(row[3] == 1.0 for row in table))
    gap.same("max_error", report["summary"]["max_error"], max(row[1] for row in table))
    gap.same("n_max", report["params"]["n_max"], int(_flag(case.argv, "--n-max")))


_CHECKS = {
    "approx": _check_approx,
    "primitive": _check_primitive,
    "converge": _check_converge,
    "bound": _check_bound,
    "identities": _check_identities,
}


def check(case: Case, code: int, stdout: str, stderr: str, golden: str | None = None) -> float | None:
    """Check the report of a valid argv that exited 0 or 1.

    Returns its result_err_max, or None when nothing was referenced;
    raises Mismatch when the report is wrong.  golden is the expected
    bytes for a golden case.
    """
    if stderr:
        raise Mismatch(f"unexpected stderr {stderr[:200]!r}")
    if case.golden is not None:
        if stdout != golden:
            raise Mismatch(f"output differs from golden {case.golden}")
        return None
    report = parse_report(stdout, _flag(case.argv, "--emit") == "csv")
    command = case.argv[0]
    gap = _Gap()
    gap.same("command", report["command"], command)
    gap.same("expr", report["expr"], _flag(case.argv, "--expr", ""))
    gap.same("passed", report["summary"]["passed"], code == 0)
    gap.same("degree", len(report["poly"]["coeffs"]), report["poly"]["degree"] + 1)
    with mpmath.workdps(DPS):
        _CHECKS[command](case, report, gap)
    return gap.max if case.expr is not None else None
