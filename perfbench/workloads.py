"""Seeded argv generation for the benchmark workloads.

A workload is one pass of argvs, generated from the seed and
replayed in a closed loop.  Each Case carries what the run must produce:
the exit codes that count as success, the stderr class of a rejected
argv, the golden file to match byte for byte, or the expression whose
independent reference the report is checked against (see reference.py).

Sizes are drawn by stratified sampling (one draw per stratum of each
range, in shuffled order), so every seed gives the same mix of costs and
the run-to-run spread of the timings stays small.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath

WORKLOADS = ("cli-small", "oracle-sweep", "high-degree", "identities-basis")

# How a run turns the call times of one argv into its report time.  On a
# shared host, code runs up to about 1.8x slower in spells of 5-20 s.
# cli-small and identities-basis repeat each argv 30-200 times in a run,
# so its fastest call is its cost and the spells drop out.  The other
# workloads repeat each argv 2-10 times, too few for a minimum to be
# steady, so they average.
REPORT_TIME = {
    "cli-small": min,
    "oracle-sweep": statistics.fmean,
    "high-degree": statistics.fmean,
    "identities-basis": min,
}

# The five golden argvs of tests/cli_cases.py; the bytes live in tests/goldens/.
GOLDEN_CASES = (
    ("approx_square_csv", ("approx", "--expr", "x^2", "--n", "10", "--samples", "5", "--emit", "csv")),
    ("primitive_square_json", ("primitive", "--expr", "x^2", "--n", "4", "--samples", "5", "--panels", "8")),
    ("identities_seeded_json", ("identities", "--n-max", "40", "--grid", "21", "--seed", "7")),
    (
        "converge_square_csv",
        ("converge", "--expr", "x^2", "--degrees", "5,10,20", "--grid", "41", "--panels", "16", "--emit", "csv"),
    ),
    ("bound_kink_json", ("bound", "--expr", "abs(x - 0.5)", "--eps", "0.5", "--lipschitz", "1", "--grid", "101")),
)


@dataclass(frozen=True)
class Expr:
    """An --expr text with an evaluator that shares no code with bernprim."""

    text: str
    mp: Callable[[mpmath.mpf], mpmath.mpf]
    lipschitz: float | None = None  # a valid Lipschitz constant on [0, 1]
    closed: str | None = None  # "square" or "kink": exact closed forms exist
    kink: Fraction | None = None  # the kink point of abs(x - c)


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    expect: tuple[int, ...] = (0, 1)  # exit codes that count as success
    stderr: tuple[str, ...] = ()  # accepted stderr classes of a rejected argv
    golden: str | None = None
    expr: Expr | None = None  # checked against the independent reference
    row_step: int = 1  # reference every row_step-th table row (large tables)

    @property
    def valid(self) -> bool:
        return not self.stderr


def _k(text: str) -> mpmath.mpf:
    """The double the CLI parses from a decimal literal, exactly."""
    return mpmath.mpf(float(text))


def square() -> Expr:
    return Expr("x^2", lambda x: x * x, lipschitz=2.0, closed="square")


def kink(c: str) -> Expr:
    return Expr(f"abs(x - {c})", lambda x: abs(x - _k(c)), lipschitz=1.0, closed="kink", kink=Fraction(c))


def sine() -> Expr:
    pi = "3.141592653589793"
    return Expr(f"sin({pi}*x)", lambda x: mpmath.sin(_k(pi) * x), lipschitz=3.1416)


def _decimal(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.2f}"


def decay(rng: random.Random) -> Expr:
    a = _decimal(rng, 0.5, 3.0)
    return Expr(f"exp(-{a}*x)", lambda x: mpmath.exp(-_k(a) * x))


def roots(rng: random.Random) -> Expr:
    b = _decimal(rng, 2.0, 5.0)
    return Expr(f"sqrt(1 + x) - log(1 + x^2)/{b}", lambda x: mpmath.sqrt(1 + x) - mpmath.log(1 + x * x) / _k(b))


def hinge(rng: random.Random) -> Expr:
    c = _decimal(rng, 0.2, 0.4)
    return Expr(f"max(x, {c})*min(1 - x, 0.6)", lambda x: max(x, _k(c)) * min(1 - x, _k("0.6")))


def wave(rng: random.Random) -> Expr:
    a = _decimal(rng, 2.0, 4.0)
    return Expr(
        f"sin({a}*x)*exp(x) + x^2/(1+x)",
        lambda x: mpmath.sin(_k(a) * x) * mpmath.exp(x) + x * x / (1 + x),
    )


def rational() -> Expr:
    return Expr(
        "((1 + x)^3 - 2*x)/(2 + sin(x)) + cos(x^2)*exp(-x)",
        lambda x: ((1 + x) ** 3 - 2 * x) / (2 + mpmath.sin(x)) + mpmath.cos(x * x) * mpmath.exp(-x),
    )


def runge(rng: random.Random) -> Expr:
    k = _decimal(rng, 5.0, 15.0)
    return Expr(
        f"1/(1 + 25*(x - 0.5)^2) + 0.1*cos({k}*x) + x^3 - x/3 + exp(x/2)*sin(x)",
        lambda x: 1 / (1 + 25 * (x - _k("0.5")) ** 2)
        + _k("0.1") * mpmath.cos(_k(k) * x)
        + x**3
        - x / 3
        + mpmath.exp(x / 2) * mpmath.sin(x),
    )


def _pool(rng: random.Random) -> list[Expr]:
    """Expressions from 3 to about 30 tree nodes."""
    return [
        square(),
        kink(rng.choice(["0.5", "0.25", "0.75", "0.375"])),
        sine(),
        decay(rng),
        roots(rng),
        hinge(rng),
        wave(rng),
        rational(),
        runge(rng),
    ]


def _strata(rng: random.Random, lo: int, hi: int, count: int, step: int = 1) -> list[int]:
    """One integer per equal-width stratum of [lo, hi], shuffled, on multiples of step."""
    width = (hi - lo) / count
    values = [lo + int((i + rng.random()) * width) for i in range(count)]
    values = [min(hi, max(lo, step * round(v / step))) for v in values]
    rng.shuffle(values)
    return values


def _odd(value: int) -> int:
    return value | 1


# ---------------------------------------------------------------------------
# Rejected argvs: about a tenth of cli-small.

_PARSE_ERRORS = ("x^^2", "2x", "(x + 1", "x + * 2", "sin x", "foo(x)", "y + 1")
_DOMAIN_ERRORS = ("log(x)", "1/(x - 0.5)", "sqrt(x - 1)", "log(x - 0.25)^2")
_BAD_FLAGS = (
    ("approx", "--expr", "x^2", "--n", "0"),
    ("approx", "--expr", "x^2", "--n", "100001"),
    ("primitive", "--expr", "x^2", "--n", "8", "--panels", "7"),
    ("converge", "--expr", "x^2", "--degrees", "20,10"),
    ("converge", "--expr", "x^2", "--degrees", "4,8", "--grid", "1"),
    ("approx", "--expr", "x^2", "--n", "4", "--samples", "1"),
    ("bound", "--expr", "x^2", "--eps", "0.5"),
    ("identities", "--n-max", "0"),
    ("approx", "--expr", "x^2", "--n", "4", "--emit", "xml"),
)


def _rejected(rng: random.Random) -> list[Case]:
    command = rng.choice(["approx", "primitive", "converge"])
    tail = {"approx": ("--n", "8"), "primitive": ("--n", "8"), "converge": ("--degrees", "4,8")}[command]
    nested = "(" * 3000 + "x" + ")" * 3000
    return [
        Case((command, "--expr", rng.choice(_PARSE_ERRORS), *tail), expect=(2,), stderr=("parse",)),
        Case((command, "--expr", rng.choice(_DOMAIN_ERRORS), *tail), expect=(3,), stderr=("numeric",)),
        Case(rng.choice(_BAD_FLAGS), expect=(2,), stderr=("usage",)),
        Case(rng.choice(_BAD_FLAGS), expect=(2,), stderr=("usage",)),
        # Documented as usage errors (exit 2); both escape main today.
        Case(("bound", "--expr", "abs(x - 0.5)", "--eps", "nan", "--lipschitz", "1"), expect=(2,), stderr=("usage",)),
        Case(("approx", "--expr", nested, "--n", "4"), expect=(2,), stderr=("parse", "usage")),
    ]


# ---------------------------------------------------------------------------
# Workloads


def _bound_eps(f: Expr, sup: float, degree: int) -> str:
    """An eps for which bound --lipschitz picks about this degree."""
    eps = (16.0 * f.lipschitz**2 * 1.01 * sup / (degree - 0.5)) ** (1.0 / 3.0)
    return f"{eps:.4f}"


def cli_small(rng: random.Random) -> list[Case]:
    pool = _pool(rng)
    cases = [Case(argv, expect=(0,), golden=name) for name, argv in GOLDEN_CASES]
    per_command = 10
    for i, (n, samples) in enumerate(zip(_strata(rng, 2, 65, per_command), _strata(rng, 3, 21, per_command))):
        f = pool[i % len(pool)]
        argv = ("approx", "--expr", f.text, "--n", str(n), "--samples", str(samples))
        cases.append(Case(argv + (("--emit", "csv") if i % 3 == 0 else ()), expr=f))
    for i, (n, samples, panels) in enumerate(
        zip(_strata(rng, 2, 65, per_command), _strata(rng, 3, 11, per_command), _strata(rng, 4, 32, per_command, 2))
    ):
        f = pool[(i + 3) % len(pool)]
        argv = ("primitive", "--expr", f.text, "--n", str(n), "--samples", str(samples), "--panels", str(panels))
        cases.append(Case(argv, expr=f))
    for n_max, grid in zip(_strata(rng, 10, 65, per_command - 1), _strata(rng, 11, 101, per_command - 1)):
        argv = ("identities", "--n-max", str(n_max), "--grid", str(grid), "--seed", str(rng.randrange(1000)))
        cases.append(Case(argv))
    for i, (top, grid, panels) in enumerate(
        zip(_strata(rng, 12, 65, per_command), _strata(rng, 21, 51, per_command), _strata(rng, 4, 16, per_command, 2))
    ):
        f = pool[(i + 6) % len(pool)]
        degrees = sorted({max(1, top // 4), max(2, top // 2), top})
        argv = ("converge", "--expr", f.text, "--degrees", ",".join(map(str, degrees)))
        argv += ("--grid", str(_odd(grid)), "--panels", str(panels))
        cases.append(Case(argv + (("--emit", "csv") if i % 2 else ()), expr=f))
    bounded = [square(), kink("0.5"), kink("0.25"), sine()]
    for i, (degree, grid) in enumerate(zip(_strata(rng, 8, 60, per_command), _strata(rng, 21, 101, per_command))):
        f = bounded[i % len(bounded)]
        sup = float(max(f.kink, 1 - f.kink)) if f.closed == "kink" else 1.0
        argv = ("bound", "--expr", f.text, "--eps", _bound_eps(f, sup, degree), "--lipschitz", str(f.lipschitz))
        cases.append(Case(argv + ("--grid", str(_odd(grid))), expr=f))
    cases += _rejected(rng)
    rng.shuffle(cases)
    return cases


def oracle_sweep(rng: random.Random) -> list[Case]:
    # The grid is 201, not the 1001 of a default converge run: the oracle and
    # de Casteljau costs both scale with the grid, so the layer mix is the
    # same, and a pass of about 3 s repeats several times in a run.
    big = wave(rng)
    c = rng.choice(["0.5", "0.25", "0.75"])
    sweep = ("--degrees", "16,64,256", "--grid", "201", "--panels", "256")
    return [
        Case(("converge", "--expr", f"abs(x - {c})") + sweep, expr=kink(c)),
        Case(("converge", "--expr", "x^2") + sweep, expr=square()),
        Case(("converge", "--expr", big.text) + sweep, expr=big),
        Case(
            ("primitive", "--expr", "x^2", "--n", str(rng.randrange(240, 257)))
            + ("--samples", str(_odd(rng.randrange(91, 112))), "--panels", "512"),
            expr=square(),
        ),
        Case(
            ("primitive", "--expr", big.text, "--n", str(rng.randrange(240, 257)))
            + ("--samples", str(_odd(rng.randrange(41, 62))), "--panels", "256"),
            expr=big,
            row_step=5,
        ),
    ]


def high_degree(rng: random.Random) -> list[Case]:
    cases = []
    # bound picks degree floor(16 * 1.01 * sup / eps^3) + 1; sup is max(c, 1 - c).
    for c, degree in (("0.5", rng.randrange(1000, 1010)), (rng.choice(["0.25", "0.75"]), rng.randrange(1150, 1160))):
        f = kink(c)
        sup = float(max(f.kink, 1 - f.kink))
        argv = ("bound", "--expr", f.text, "--eps", _bound_eps(f, sup, degree), "--lipschitz", "1")
        cases.append(Case(argv, expr=f))
    cases.append(
        Case(("converge", "--expr", "x^2", "--degrees", "512,1024", "--grid", "1001", "--panels", "2"), expr=square())
    )
    # Fixed order: the allocator's reuse of the large de Casteljau arrays,
    # and so the peak RSS, depends on it.
    return cases


def identities_basis(rng: random.Random) -> list[Case]:
    # n_max is log-spaced over [50, 1e5], at the middle of each of 9 strata;
    # the seed draws each report's --seed, so the (n, x) pairs it tests.  A
    # report's cost grows faster than n_max, so a seeded n_max in the top
    # stratum would move the pass time with the seed, and so would too few
    # degree draws per stratum.  Eight reports of grid 25 per stratum draw
    # as many degrees as one of grid 201, in calls an eighth as long: the
    # fastest of a call's ~30 repeats then finds a quiet spell of the host.
    strata, per_stratum = 9, 8
    cases = []
    for i in range(strata):
        n_max = round(math.exp(math.log(50) + (math.log(1e5) - math.log(50)) * (i + 0.5) / strata))
        for _ in range(per_stratum):
            argv = ("identities", "--n-max", str(n_max), "--grid", "25", "--seed", str(rng.randrange(1000)))
            cases.append(Case(argv))
    rng.shuffle(cases)
    return cases


_BUILDERS = {
    "cli-small": cli_small,
    "oracle-sweep": oracle_sweep,
    "high-degree": high_degree,
    "identities-basis": identities_basis,
}


def build(workload: str, seed: int) -> list[Case]:
    """The pass of cases for a workload; the same seed gives the same pass."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def warmup() -> list[tuple[str, ...]]:
    """One small argv per subcommand, run untimed before any measurement."""
    return [argv for _name, argv in GOLDEN_CASES]
