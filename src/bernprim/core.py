"""Bernstein-basis machinery on the unit interval.

Builds the degree-n Bernstein approximant of a continuous function on
[0, 1] and the explicit polynomial antiderivative obtained by integrating
it term by term, together with the basis identities, sup-norm estimates
and degree bounds that make the construction checkable numerically.

Everything works in ordinary double precision and every operation is pure:
no function here mutates its arguments or keeps hidden state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Literal, Sequence, Union, get_args

import numpy as np

__all__ = [
    "EvaluationError",
    "BernsteinPoly",
    "RealFunction",
    "SupNormEstimate",
    "binomial_convention",
    "basis_eval",
    "basis_all",
    "basis_derivative",
    "moment_sum",
    "moment_sums",
    "bernstein_approximant",
    "primitive_approximant",
    "eval_poly",
    "poly_values",
    "poly_and_primitive_values",
    "derivative_poly",
    "antiderivative_poly",
    "difference_quotient",
    "required_degree",
    "lipschitz_delta",
    "sup_norm_distance",
]

# Naive C(n,m) * x^m * (1-x)^(n-m) is safe for small degrees only; above
# this _basis_weight uses Loader's saddle-point form.
_NAIVE_BASIS_LIMIT = 50

# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)^k) for k = 1..16, to double
# precision; above 16 its asymptotic series is used (see _stirlerr).
_STIRLERR = (
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
    0.0052076559196096404,
)

# moment_sums and _window_values walk in blocks of at most this many
# (padded) weights: arrays of at most 128 KB, glibc's mmap threshold.  On a
# 2-CPU x86 host, 1001 points of _window_values in blocks of 2**14 in one
# reused workspace took 0.86 ms at degree 65, 2.96 at 1155, 8.2 at 8081 and
# 31 at 1e5, against 1.38, 4.15, 9.1 and 40 ms in blocks of 2**13 allocated
# afresh.  Minor page faults per call (getrusage, ten calls after the first)
# went 0 -> 0 at 1155, 0 -> 92 at 8081, where a block array is about 127 KB,
# and 570 -> 569 at 1e5; a first call at 1155 takes 35 against 2.
_BASIS_BLOCK = 2**14

# moment_sums sorts and tabulates this many draws at a time, so its
# bookkeeping stays small at any grid: `identities --n-max 100000 --grid
# 100001` peaked at 41.6 MB RSS with these chunks and 139.7 MB without.
_MOMENT_CHUNK = 2**12

# RealFunction probes its evaluator at i/256, i = 0..256, when it is built:
# a dyadic grid, so it lands exactly on poles such as 0.25 or 0.5.
_PROBE_POINTS = 257
_PROBE_GRID = np.arange(_PROBE_POINTS) / (_PROBE_POINTS - 1)

MomentKind = Literal["partition", "first", "second_central"]
MOMENT_KINDS = get_args(MomentKind)  # the sums identities 1-3 check, in their order


class EvaluationError(Exception):
    """An evaluator failed or produced a non-finite value."""


def _check_unit(x: float, name: str = "x") -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def _unit_grid(xs: Sequence[float]) -> np.ndarray:
    """xs as a 1-D float array, checked to lie in [0, 1].

    The first point outside, nan included, raises _check_unit's error.
    """
    grid = np.asarray(xs, dtype=float)
    if grid.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    if grid.size and not (grid.min() >= 0.0 and grid.max() <= 1.0):  # false for nan too
        _check_unit(grid[(~((grid >= 0.0) & (grid <= 1.0))).argmax()])
    return grid


def _check_count(value, name: str, least: int | None = None):
    """value as an int, or a numpy array as an intp array; the first value below least raises.

    TypeError for non-integers, as in math.comb (2.5, 2.0, "7"), and non-empty non-integer arrays.
    """
    try:
        value = first = operator.index(value)
    except TypeError:
        if not isinstance(value, np.ndarray):
            raise
        if value.size and value.dtype.kind not in "iu":
            raise TypeError(f"{name} must have an integer dtype, got {value.dtype}") from None
        value = value.astype(np.intp, copy=False)
        first = value[(value < least).argmax()] if value.size else least
    if least is not None and first < least:
        raise ValueError(f"{name} must be >= {least}, got {first}")
    return value


def _check_positive(value: float, name: str) -> float:
    value = float(value)
    if not value > 0.0 or not math.isfinite(value):
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class BernsteinPoly:
    """A polynomial of degree n held by its n+1 Bernstein-basis coefficients.

    Immutable; evaluation, differentiation and division below never modify
    the coefficient tuple.
    """

    degree: int
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", _check_count(self.degree, "degree", 0))
        coeffs = tuple(map(float, self.coeffs))
        if len(coeffs) != self.degree + 1:
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, "
                f"got {len(coeffs)}"
            )
        if not all(map(math.isfinite, coeffs)):
            j = next(j for j, c in enumerate(coeffs) if not math.isfinite(c))
            raise ValueError(f"coefficient {j} is not finite: {coeffs[j]!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, x: float) -> float:
        return eval_poly(self, x)

    def to_dict(self) -> dict:
        return {"degree": self.degree, "coeffs": list(self.coeffs)}

    @classmethod
    def from_dict(cls, data: dict) -> "BernsteinPoly":
        return cls(data["degree"], data["coeffs"])


def _first_failure(batch: Callable[[np.ndarray], np.ndarray | None], grid: np.ndarray) -> int:
    """The index of the first point of grid where batch fails, or the last index if none.

    A batch fails exactly when it fails at some point of it, so batches of
    1, 2, 4, ... points find the first failing stretch, and halves of it
    the point: one batch for point 0, about 2 log2(k) for point k.
    """
    start, size = 0, 1
    while start < grid.size and batch(grid[start : start + size]) is not None:
        start, size = start + size, 2 * size
    while size > 1 and start < grid.size:  # the first failure is in grid[start : start + size]
        size //= 2
        if batch(grid[start : start + size]) is not None:
            start += size
    return min(start, grid.size - 1)  # every point before it passed a batch


@dataclass(frozen=True)
class RealFunction:
    """A real-valued function on [0, 1].

    The evaluator is probed on a uniform grid at construction time so that
    a broken definition fails loudly up front rather than deep inside a
    degree-1000 sweep.

    An optional batch evaluator takes a 1-D array of points and returns
    the evaluator's values at all of them, bit for bit, or None when the
    evaluator would raise or give a non-finite value at any of them.
    values() and the probe use it, and call the evaluator alone where a
    batch that gives up first fails, so every error is the one the first
    failing call raises.  The batch is trusted, never compared with the
    evaluator; it is keyword-only, and expr.to_real_function supplies it.
    """

    evaluator: Callable[[float], float]
    batch: Callable[[np.ndarray], np.ndarray | None] | None = field(
        default=None, repr=False, compare=False, kw_only=True
    )

    def __post_init__(self) -> None:
        if self.batch is not None and self.batch(_PROBE_GRID) is not None:
            return
        start = 0 if self.batch is None else _first_failure(self.batch, _PROBE_GRID)
        for x in _PROBE_GRID[start:].tolist():
            try:
                value = float(self.evaluator(x))
            except (EvaluationError, ArithmeticError, ValueError) as exc:
                raise EvaluationError(f"construction probe failed at x={x!r}: {exc}") from exc
            if not math.isfinite(value):
                raise EvaluationError(
                    f"construction probe found non-finite value {value!r} at x={x!r}"
                )

    def __call__(self, x: float) -> float:
        x = _check_unit(x)
        value = float(self.evaluator(x))
        if not math.isfinite(value):
            raise EvaluationError(f"evaluator returned non-finite value {value!r} at x={x!r}")
        return value

    def values(self, xs: Sequence[float]) -> np.ndarray:
        """The function at each of xs, which are checked against [0, 1] once.

        One batch when there is a batch evaluator and it succeeds, or one
        call where it first fails; otherwise one call per point, in order.
        So values equal [f(x) for x in xs] and fail as that loop first fails.
        """
        grid = _unit_grid(xs)
        values = None if self.batch is None else self.batch(grid)
        if values is not None:
            return values
        if self.batch is not None:  # a call where the batch first fails raises, as the loop would
            self(grid[_first_failure(self.batch, grid)].item())
        return np.array([self(x) for x in grid.tolist()], dtype=float)


@dataclass(frozen=True)
class SupNormEstimate:
    """Maximum of |g - h| over a uniform grid.

    A lower bound for the true sup-norm distance; ``argmax`` is the grid
    point where the maximum was attained (first one on ties).
    """

    value: float
    argmax: float


Evaluatable = Union[BernsteinPoly, RealFunction, Callable[[float], float]]


# ---------------------------------------------------------------------------
# Basis operations


def binomial_convention(n: int, m: int) -> int:
    """C(n, m), with value 0 whenever m < 0 or m > n.

    Exact integer arithmetic, so no overflow at any degree; callers that
    need a basis weight in float range should use basis_eval instead.
    """
    n, m = _check_count(n, "n", 0), _check_count(m, "m")
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)


def _stirlerr(k: int) -> float:
    """log(k!) - log(sqrt(2 pi k) (k/e)^k), the error of Stirling's formula, for k >= 1."""
    if k <= len(_STIRLERR):
        return _STIRLERR[k - 1]
    kk = float(k) * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k


def _bd0(k: int, mean: float, d: float) -> float:
    """The deviance k log(k / mean) + mean - k, for k >= 1 and d = k - mean.

    d is passed to full precision, since mean itself is rounded.  Close to
    the mean (|d| < 0.1 (k + mean)) it is the series
    2k sum_j v^(2j+1) / (2j+1) - d v in v = d / (k + mean), whose terms
    shrink a hundredfold each.  Farther out it is -k log1p(-d/k) - d while
    mean >= k/2, and the closed form below that, where the terms no longer
    cancel.
    """
    if abs(d) < 0.1 * (k + mean):
        v = d / (k + mean)
        total = d * v
        term = 2.0 * k * v
        v *= v
        j = 1
        while True:
            term *= v
            grown = total + term / (2 * j + 1)
            if grown == total:
                return total
            total = grown
            j += 1
    if mean < 0.5 * k:
        return k * math.log(k / mean) + mean - k
    return -k * math.log1p(-d / k) - d


def basis_eval(m: int, n: int, x: float) -> float:
    """Value of the degree-n Bernstein basis polynomial with index m at x.

    Out-of-range m gives 0.  Up to a small degree it is the naive product;
    above, it is Loader's saddle-point form
        exp(stirlerr(n) - stirlerr(m) - stirlerr(n-m) - bd0(m, nx) - bd0(n-m, n(1-x)))
        / sqrt(2 pi m (n-m) / n),
    whose terms are all small near the mode, so the weight there is
    accurate to a few ulp at any degree and never leaves float range.
    Away from the mode the relative error grows like |m - nx| ulp.
    (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000.)
    """
    n, m = _check_count(n, "n", 0), _check_count(m, "m")
    return _basis_weight(m, n, _check_unit(x))


def _basis_weight(m: int, n: int, x: float) -> float:
    """basis_eval(m, n, x) for an int n >= 0, an int m and a float x in [0, 1], unchecked."""
    if m < 0 or m > n:
        return 0.0
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    if x == 1.0:
        return 1.0 if m == n else 0.0
    if n <= _NAIVE_BASIS_LIMIT:
        return math.comb(n, m) * x**m * (1.0 - x) ** (n - m)
    if m == 0:
        return math.exp(n * math.log1p(-x))
    if m == n:
        return math.exp(n * math.log(x))
    # m - n x to full precision: x is a dyadic rational num / den.
    num, den = x.as_integer_ratio()
    d = (m * den - n * num) / den
    exponent = (
        _stirlerr(n)
        - _stirlerr(m)
        - _stirlerr(n - m)
        - _bd0(m, n * x, d)
        - _bd0(n - m, n * (1.0 - x), -d)
    )
    return math.exp(exponent) * math.sqrt(n / (2.0 * math.pi * m * (n - m)))


def basis_all(n: int, x: float) -> np.ndarray:
    """All n+1 basis values at x in one O(n) pass: one _basis_block row, m = 0..n."""
    n, x = _check_count(n, "n", 0), _check_unit(x)
    mode = min(int(x * (n + 1)), n)
    weight = np.array([[_basis_weight(mode, n, x)]])
    return _basis_block(np.array([[n]]), np.array([[x]]), weight, np.arange(n + 1.0)[None], mode)[0]


def _window_half(n):
    """Half-width of the basis window around the mode at degree n (an int or an array).

    The window |m - mode| <= ceil(4.6 sqrt n) + 2 reaches more than
    4.6 sqrt(n) past n x on each side (the mode floor((n+1) x) is within 1
    of n x), so by Hoeffding's bound 2 exp(-2 t^2 / n) the weights outside
    it sum to under 1e-18.
    """
    return np.ceil(4.6 * np.sqrt(n)).astype(np.intp) + 2


def _basis_block(
    n: np.ndarray, x: np.ndarray, scales: np.ndarray, m: np.ndarray, below: int
) -> np.ndarray:
    """Rows of basis values at the indices m, whose column `below` is each row's mode.

    n, x and scales are columns, one entry per row; a row's mode is
    floor((n+1) x), the index of its largest weight, and its scale the
    weight there.  A walk's step is the neighbour ratio
    b[m+1] / b[m] = odds (n-m) / (m+1), odds = x / (1-x), rounded in
    that order, to the columns above the mode and its reciprocal below.
    Each walk is one cumulative product along the rows, outward from 1.0
    at the mode column, so far tails underflow harmlessly to 0, and each
    row is then multiplied by its scale, never divided by its own sum, so
    the partition of unity stays something to check.  At x = 0 and x = 1
    a row is an exact unit vector: the ratio away from the mode, or its
    reciprocal, is 0, and the weight at the mode is 1.0.  A row's
    arithmetic is its own, so its values do not depend on the rows it
    shares a block with.  Past its own window a walk runs on to the
    block's widest row, where it may divide by 0 (odds 0 at x = 0, m + 1
    at m = -1), overflow (a reciprocal below m = 0 at a subnormal x) or
    make nan (0 times inf).  One errstate silences the whole walk: inside
    each row's window every step is finite (at x = 1 the odds are inf and
    the steps below the mode their reciprocals, 0) and no product
    overflows, so every value those produce lies outside it.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        steps = np.subtract(n, m[:, :-1])  # n - m, exact; step c leaves column c
        steps *= x / (1.0 - x)
        steps /= m[:, 1:]  # m + 1, the next column's index
        np.reciprocal(steps[:, :below], out=steps[:, :below])
        w = np.empty(m.shape)
        w[:, below] = 1.0
        np.multiply.accumulate(steps[:, below:], axis=1, out=w[:, below + 1 :])
        np.multiply.accumulate(steps[:, :below][:, ::-1], axis=1, out=w[:, :below][:, ::-1])
        w *= scales
    return w


def basis_derivative(m: int, n: int, x: float) -> float:
    """d/dx of the (m, n) basis polynomial via the degree-lowering identity.

    Equals n * (value at (m-1, n-1) minus value at (m, n-1)); the zero
    convention makes the edge cases m = 0 and m = n come out right.
    """
    n, m, x = _check_count(n, "n", 1), _check_count(m, "m"), _check_unit(x)
    return n * (_basis_weight(m - 1, n - 1, x) - _basis_weight(m, n - 1, x))


def moment_sum(n: int, x: float, kind: MomentKind) -> float:
    """Directly summed basis moments (the quantity under test, not a formula).

    kind "partition" sums the row itself (closed form 1), "first" sums
    m * p_m (closed form n x), and "second_central" sums (n x - m)^2 * p_m
    (closed form n x (1 - x)).  The sums run over the window
    |m - mode| <= _window_half(n), O(sqrt n) weights; the weights left
    out total under 1e-18.
    """
    return float(moment_sums([n], [x], kind)[0])


def moment_sums(
    ns: Sequence[int], xs: Sequence[float], kind: MomentKind | Sequence[MomentKind]
) -> np.ndarray:
    """moment_sum(n, x, kind) for each pair of ns and xs, bit for bit.

    kind is one kind for every pair, or a sequence of one kind per pair.
    All pairs are checked first, ns for an integer dtype, and a bad pair
    raises moment_sum's error.  They go _MOMENT_CHUNK at a time, sorted
    by n, in runs whose windows _basis_block walks as one block of at
    most _BASIS_BLOCK padded weights (a wider row is a block of its own).
    Each pair's sum runs over its own row alone, as moment_sum's does.
    """
    kinds = [kind] * len(ns) if isinstance(kind, str) else kind
    if not len(ns) == len(xs) == len(kinds):
        raise ValueError("ns, xs and the kinds must be of one length")
    ns, xs = _check_count(np.asarray(ns), "n", 1), _unit_grid(xs)
    if not set(kinds) <= set(MOMENT_KINDS):
        raise ValueError(f"unknown moment kind {next(k for k in kinds if k not in MOMENT_KINDS)!r}")
    sums = np.empty(ns.size)
    for first in range(0, ns.size, _MOMENT_CHUNK):
        n, x = ns[first : first + _MOMENT_CHUNK], xs[first : first + _MOMENT_CHUNK]
        # Largest n first, so that no row of a run is wider than its first.  sorted() is stable,
        # and unlike numpy's sorts it maps no code pages nothing else uses.
        keys = (-n).tolist()
        order = np.array(sorted(range(n.size), key=keys.__getitem__), dtype=np.intp)
        n, x = n[order], x[order]
        half, modes = _window_half(n), np.minimum((x * (n + 1)).astype(np.intp), n)
        below, above = np.minimum(modes, half).tolist(), np.minimum(n - modes, half).tolist()
        scales = [_basis_weight(*draw) for draw in zip(modes.tolist(), n.tolist(), x.tolist())]
        # _basis_block's columns n, x and scales, one entry per row
        walks = n[:, None].astype(float), x[:, None], np.array(scales)[:, None]
        modes, nx = modes[:, None].astype(float), (n * x).tolist()
        draws, half = (first + order).tolist(), half.tolist()
        start = 0
        while start < len(draws):
            stop = min(start + max(1, _BASIS_BLOCK // (2 * half[start] + 1)), len(draws))
            run = slice(start, stop)
            most_below = max(below[run])
            m = modes[run] + np.arange(-most_below, max(above[run]) + 1.0)
            w = _basis_block(*(column[run] for column in walks), m, most_below)
            rows = zip(draws[run], below[run], above[run], nx[run], w, m)
            for i, low, high, mean, row, factors in rows:
                window = slice(most_below - low, most_below + high + 1)  # draw i's own row
                row, factors = row[window], factors[window]
                if kinds[i] == "partition":
                    sums[i] = np.add.reduce(row)  # = row.sum()
                    continue
                if kinds[i] == "second_central":
                    factors = np.subtract(mean, factors)  # n x - m
                    factors *= factors
                sums[i] = factors.dot(row)
            del m, w, rows, row, factors  # so the next block is built with only its own arrays alive
            start = stop
    return sums


# ---------------------------------------------------------------------------
# Approximant construction


def bernstein_approximant(f: Evaluatable, n: int) -> BernsteinPoly:
    """Degree-n Bernstein approximant of f: coefficient m is f(m/n), sampled by _values_on."""
    n = _check_count(n, "n", 1)
    return BernsteinPoly(n, tuple(_values_on(f, np.arange(n + 1) / n).tolist()))


def primitive_approximant(f: Evaluatable, n: int) -> BernsteinPoly:
    """Degree-(n+1) polynomial antiderivative of the degree-n approximant.

    Coefficient j is the prefix sum of the first j samples f(m/n) divided
    by n+1, so the value at 0 is exactly 0 and the Bernstein derivative
    rule hands back the samples themselves.
    """
    return antiderivative_poly(bernstein_approximant(f, n))


# ---------------------------------------------------------------------------
# Polynomial operations


def _windows(table: np.ndarray, width: int) -> np.ndarray:
    """Read-only view whose row r is table[r : r + width].

    A strided view like sliding_window_view's, built in a microsecond.
    """
    rows = np.ndarray(
        (table.size - width + 1, width),
        dtype=table.dtype,
        buffer=table,
        strides=(table.itemsize, table.itemsize),
    )
    rows.flags.writeable = False
    return rows


def _window_values(rows: Sequence[tuple[float, ...]], xs: np.ndarray) -> list[np.ndarray]:
    """For each of rows, the sum of row[m] * b_{m,n}(x) over |m - mode| <= _window_half(n), at each x.

    rows are the coefficient tuples of k polynomials of one degree n;
    the result is k arrays, one per row, each of one value per point.
    The weights are basis_all's relative to the one at the mode
    floor((n+1) x), walked outward from 1.0 with the exact neighbour
    ratios; dividing them by their computed sum removes that unknown
    scale, so each value is a convex combination of its row's
    coefficients.  It is summed as c_mode + sum_m w_m (c_m - c_mode), on
    halved coefficients so that no difference overflows: a constant
    above the subnormal range comes back exactly (a subnormal one loses
    its last bit to the halving), and the rounding follows the spread of
    the coefficients in the window rather than their size.
    The window is _window_half(n) wide on each side, so the dropped
    weights sum to under 1e-18.

    Points go _BASIS_BLOCK weights at a time, one window per row of a
    block.  Each block's weights are walked and normalised once, and
    each coefficient row then takes its own spread sum over them, so a
    row's values are those of a call with that row alone, bit for bit.
    A point's arithmetic depends on that point alone, so it gets the
    same value whichever call or block it is evaluated in.
    """
    n = len(rows[0]) - 1
    values = [np.where(xs == 0.0, row[0], row[n]) for row in rows]
    inner = np.flatnonzero((xs > 0.0) & (xs < 1.0))
    if inner.size == 0:
        return values
    x = xs[inner]
    odds = (x / (1.0 - x))[:, None]
    modes = np.minimum((x * (n + 1)).astype(np.intp), n)
    half = int(_window_half(n))
    # Tables over the indices lo..hi that the windows reach.  Outside 0..n
    # the coefficients are 0 and so is every ratio that steps out of
    # range, which makes each weight there exactly 0.
    lo, hi = int(modes.min()) - half, int(modes.max()) + half
    first, stop = max(lo, 0), min(hi + 1, n)
    m = np.arange(first, stop, dtype=float)
    up = np.zeros(hi - lo + 1)  # b_{m+1} / b_m / odds
    up[first - lo : stop - lo] = (n - m) / (m + 1.0)
    down = np.zeros(hi - lo + 1)  # b_m / b_{m+1} * odds, stored from index hi down to lo
    down[::-1][first - lo : stop - lo] = (m + 1.0) / (n - m)
    # Table position t holds index t + lo, and down's holds index hi - t.
    # At k = mode - lo, row k of up_rows holds up[mode], up[mode + 1], ...;
    # row up.size - k of down_rows holds down[mode - 1], down[mode - 2],
    # ..., down[mode - half]; and row k - half of a row's windows holds
    # the window's halved coefficients.
    up_rows = _windows(up, half)
    down_rows = _windows(down, half)
    at = modes - lo
    per_row = []  # (windows, the halved coefficient at each mode, sums)
    for row in rows:
        halved = np.zeros(hi - lo + 1)
        halved[first - lo : n + 1 - lo] = 0.5 * np.array(row[first : hi + 1])
        per_row.append((_windows(halved, 2 * half + 1), halved[at], np.empty(at.size)))
    # One workspace for every block: the weights and their row sums.
    block = min(max(1, _BASIS_BLOCK // (2 * half + 1)), at.size)
    weights, totals = np.empty((block, 2 * half + 1)), np.empty((block, 1))
    for start in range(0, at.size, block):
        points = slice(start, start + block)
        k, r = at[points], odds[points]
        w, total = weights[: k.size], totals[: k.size]
        w[:, half] = 1.0
        # Outward from the mode: b_{m+1} = b_m * up[m] * odds above it,
        # b_{m-1} = b_m * down[m-1] / odds below it.
        steps = up_rows[k]
        steps *= r
        np.multiply.accumulate(steps, axis=1, out=w[:, half + 1 :])
        steps = down_rows[up.size - k]
        steps /= r
        np.multiply.accumulate(steps, axis=1, out=w[:, half - 1 :: -1])
        np.add.reduce(w, axis=1, keepdims=True, out=total)
        w /= total
        k = k - half
        for windows, refs, sums in per_row:
            spread = windows[k]
            spread -= refs[points, None]
            spread *= w
            np.add.reduce(spread, axis=1, out=sums[points])
    for row_values, (_, refs, sums) in zip(values, per_row):
        sums += refs
        row_values[inner] = 2.0 * sums
    return values


def eval_poly(p: BernsteinPoly, x: float) -> float:
    """poly_values(p, [x]) as a float, so within [min coeff, max coeff] up to rounding."""
    return float(poly_values(p, [x])[0])


def poly_values(p: BernsteinPoly, xs: Sequence[float]) -> np.ndarray:
    """Evaluate p at many points at once.

    One _window_values pass, one basis window per row; a row's arithmetic
    depends on its own point only, so results match eval_poly bitwise.
    """
    return _window_values((p.coeffs,), _unit_grid(xs))[0]


def poly_and_primitive_values(
    p: BernsteinPoly, xs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """p and its antiderivative F = antiderivative_poly(p) at many points, from one basis walk.

    The first array is poly_values(p, xs), bit for bit.  With F's
    coefficients C_0..C_{n+1}, one de Casteljau step,
    b_{j,n+1} = (1 - x) b_{j,n} + x b_{j-1,n}, and C_{m+1} - C_m =
    c_m / (n+1) give F(x) = sum_{m<=n} C_m b_{m,n}(x) + x p(x) / (n+1),
    so F's values come from the same degree-n windows as p's: one walk of
    _window_values with the rows c and C_0..C_n.  F(0) is exactly 0 and
    F(1) is exactly C_{n+1}; inside, F agrees with poly_values(F, xs) to
    within a few ulp of max |C|.
    """
    grid = _unit_grid(xs)
    primitive = antiderivative_poly(p).coeffs
    values, partial = _window_values((p.coeffs, primitive[:-1]), grid)
    partial += grid * values / (p.degree + 1)
    partial[grid == 1.0] = primitive[-1]
    return values, partial


def derivative_poly(p: BernsteinPoly) -> BernsteinPoly:
    """Derivative of p in Bernstein form: n times adjacent differences.

    Degree 0 input differentiates to the zero polynomial of degree 0.
    """
    n = p.degree
    if n == 0:
        return BernsteinPoly(0, (0.0,))
    c = p.coeffs
    return BernsteinPoly(n - 1, tuple(n * (c[j + 1] - c[j]) for j in range(n)))


def antiderivative_poly(p: BernsteinPoly) -> BernsteinPoly:
    """The antiderivative of p that vanishes at 0, in Bernstein form.

    Coefficient j is the sum of p's first j coefficients divided by n+1,
    so derivative_poly hands back p's coefficients to rounding.  Every
    double is an integer multiple of the largest denominator among the
    coefficients' as_integer_ratio() values, a power of two, so the prefix
    sums are exact integers, and each quotient sum / (scale (n+1)) is an
    int division, rounded once.  It is at most max |c| in size, so it
    never overflows.
    """
    ratios = [c.as_integer_ratio() for c in p.coeffs]
    scale = max(den for _, den in ratios)
    divisor = scale * (p.degree + 1)
    sums = accumulate((num * (scale // den) for num, den in ratios), initial=0)
    return BernsteinPoly(p.degree + 1, tuple(s / divisor for s in sums))


def difference_quotient(p: BernsteinPoly, c: float) -> BernsteinPoly:
    """The polynomial Q with p(x) - p(c) = Q(x) (x - c), in Bernstein form.

    Divides out the root at c directly in the Bernstein basis (the power
    basis route is hopelessly ill-conditioned by degree 40).  The forward
    recurrence is stable below c and the backward one above it, so the two
    sweeps meet near index degree * c.
    """
    c = float(c)
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie strictly inside (0, 1), got {c!r}")
    d = p.degree
    if d < 1:
        raise ValueError("difference quotient needs degree >= 1")
    at_c = eval_poly(p, c)
    r = [b - at_c for b in p.coeffs]
    quotient = [0.0] * d
    split = min(d - 1, max(0, math.floor(c * d)))
    forward = 0.0
    for j in range(split + 1):
        forward = ((1.0 - c) * j * forward - d * r[j]) / (c * (d - j))
        quotient[j] = forward
    backward = 0.0
    for j in range(d, split + 1, -1):
        backward = (d * r[j] + c * (d - j) * backward) / ((1.0 - c) * j)
        quotient[j - 1] = backward
    return BernsteinPoly(d - 1, tuple(quotient))


# ---------------------------------------------------------------------------
# Degree bounds and norms


def required_degree(sup_bound: float, eps: float, delta: float) -> int:
    """Smallest degree strictly above 4 * sup_bound / (eps * delta^2).

    The quotient is snapped to the nearest integer when it sits within a
    1e-9 relative hair of one, so decimal inputs like 0.2 and 0.1 behave
    as their exact decimal values rather than as their binary neighbours.
    """
    _check_positive(sup_bound, "sup_bound")
    _check_positive(eps, "eps")
    delta = _check_positive(delta, "delta")
    if delta > 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    # Divided step by step: eps * delta^2 can underflow where the bound
    # itself is small, and with delta <= 1 no step overflows unless the
    # bound does.
    bound = 4.0 * sup_bound / eps / delta / delta
    nearest = round(bound)
    if abs(bound - nearest) <= 1e-9 * max(1.0, abs(bound)):
        bound = float(nearest)
    return math.floor(bound) + 1


def lipschitz_delta(lipschitz: float, eps: float) -> float:
    """Largest step delta <= 1 with L-Lipschitz oscillation under eps/2."""
    _check_positive(lipschitz, "lipschitz")
    _check_positive(eps, "eps")
    return min(1.0, eps / (2.0 * lipschitz))


def _values_on(obj: Evaluatable, grid: np.ndarray) -> np.ndarray:
    """obj at each point of grid; a plain callable is called on each point as a Python float."""
    if isinstance(obj, BernsteinPoly):
        return poly_values(obj, grid)
    if isinstance(obj, RealFunction):
        return obj.values(grid)
    return np.array([float(obj(x)) for x in grid.tolist()])


def sup_norm_distance(g: Evaluatable, h: Evaluatable, grid_size: int = 1001) -> SupNormEstimate:
    """Grid estimate of the sup-norm distance between two evaluatables.

    Evaluates both on the uniform grid i/(grid_size-1) and takes the
    largest absolute difference; a lower bound for the true sup-norm,
    with per-point maxima only (no order-dependent reductions).
    """
    grid_size = _check_count(grid_size, "grid_size", 2)
    grid = np.arange(grid_size) / float(grid_size - 1)
    diff = np.abs(_values_on(g, grid) - _values_on(h, grid))
    index = int(np.argmax(diff))  # first index wins on ties
    return SupNormEstimate(value=float(diff[index]), argmax=float(grid[index]))
