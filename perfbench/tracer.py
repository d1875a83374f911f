"""In-memory span tracer wrapped around bernprim's public functions.

install() replaces each traced function in the namespace of the module
that calls it (the CLI imports names from core, expr and quadrature; core
and expr call some of their own names), and returns a function that puts
the originals back.  Nothing under src/ is edited.

Every traced call pushes a frame; on return its duration is charged to
the parent frame, so a frame's self time is its duration minus the time
of its direct children.  Calls made once per point (expression and
polynomial evaluation, Simpson, basis weights) are aggregated into
counters; the others are also kept as spans, written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float
    self_s: float


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    request: int = 0  # set by the caller before each operation
    spans: list[Span] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    total_s: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    edges: Counter = field(default_factory=Counter)  # (parent name, name) -> calls
    stats: Counter = field(default_factory=Counter)  # layer-specific sums
    peaks: dict = field(default_factory=dict)  # layer-specific maxima
    samples: list = field(default_factory=list)  # (poly, x, value) for the accuracy check
    # Open calls, innermost last: [name, start, time in direct children, span id].
    _stack: list = field(default_factory=list)
    _ids: Iterator[int] = field(default_factory=itertools.count)

    def peak(self, key: str, value: float) -> None:
        if value > self.peaks.get(key, float("-inf")):
            self.peaks[key] = value

    def _record(self, frame: list, end: float) -> None:
        parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
        self.spans.append(Span(frame[3], parent, self.request, frame[0], frame[1], end, end - frame[1] - frame[2]))

    def wrap(self, name: str, fn: Callable, record: bool, account: Callable | None) -> Callable:
        """fn, timed as layer name; record keeps each call as a span too."""
        stack, clock = self._stack, self.clock
        calls, total_s, self_s, edges = self.calls, self.total_s, self.self_s, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            edges[(parent[0] if parent else None, name)] += 1
            frame = [name, 0.0, 0.0, next(self._ids) if record else None]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[2]
                if record:
                    self._record(frame, end)
            if account is not None:
                account(self, args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# Work counted at each boundary


def _simpson(tracer: Tracer, args: tuple, result) -> None:
    # The CLI prints only .value, built from panels + 1 integrand values;
    # the 2 * panels refinement behind .error_estimate is not printed.
    upper, panels = args[1], args[2]
    if upper > 0.0:
        tracer.stats["quadrature.simpson.useful_evals"] += panels + 1


def _sample(tracer: Tracer, args: tuple, result) -> None:
    tracer.stats["core.sample.points"] += args[1] + 1


def _eval(tracer: Tracer, args: tuple, result) -> None:
    poly, xs = args[0], args[1]
    points = len(xs) if hasattr(xs, "__len__") else 1
    n = poly.degree
    tracer.stats["core.eval.points"] += points
    tracer.stats["core.eval.ops"] += 3 * points * n * (n + 1) // 2
    tracer.peak("core.eval.bytes_peak", points * (n + 1) * 8)
    # Keep a few (poly, x, value) triples for the accuracy check: one point
    # of each multi-point call, and every 97th single-point call.
    calls = tracer.calls["core.eval"]
    if points > 1 and len(tracer.samples) < 48:
        tracer.samples.append((poly, float(xs[points // 3]), float(result[points // 3])))
    elif points == 1 and calls % 97 == 1 and len(tracer.samples) < 64:
        tracer.samples.append((poly, float(xs), float(result)))


def _basis(weights: Callable[[tuple], int]) -> Callable:
    def account(tracer: Tracer, args: tuple, result) -> None:
        tracer.stats["core.basis.weights"] += weights(args)
        if len(args) > 2 and args[2] == "partition":
            tracer.peak("core.basis.partition_err_max", abs(result - 1.0))

    return account


# (module, attribute, layer, kept as a span, accounting)
PATCHES = (
    ("bernprim.cli", "main", "cli.main", True, None),
    ("bernprim.cli", "parse", "expr.parse", True, None),
    ("bernprim.cli", "to_real_function", "expr.to_real_function", True, None),
    ("bernprim.expr", "eval_ast", "expr.eval", False, None),
    ("bernprim.cli", "simpson", "quadrature.simpson", False, _simpson),
    ("bernprim.cli", "central_difference", "quadrature.central_difference", False, None),
    ("bernprim.cli", "bernstein_approximant", "core.sample", True, _sample),
    ("bernprim.cli", "primitive_approximant", "core.sample", True, _sample),
    ("bernprim.cli", "eval_poly", "core.eval", False, _eval),
    ("bernprim.core", "eval_poly", "core.eval", False, _eval),
    ("bernprim.cli", "poly_values", "core.eval", True, _eval),
    ("bernprim.core", "poly_values", "core.eval", True, _eval),
    ("bernprim.cli", "sup_norm_distance", "core.sup_norm", True, None),
    ("bernprim.cli", "moment_sum", "core.basis", False, _basis(lambda args: args[0] + 1)),
    ("bernprim.cli", "basis_eval", "core.basis", False, _basis(lambda args: 1)),
    ("bernprim.cli", "basis_derivative", "core.basis", False, _basis(lambda args: 2)),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every function in PATCHES; the returned function restores them."""
    originals = []
    for module_name, attribute, layer, record, account in PATCHES:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        originals.append((module, attribute, original))
        setattr(module, attribute, tracer.wrap(layer, original, record, account))

    def restore() -> None:
        for module, attribute, original in reversed(originals):
            setattr(module, attribute, original)

    return restore
