"""Quadrature and finite-difference oracles, independent of the basis code.

This module imports nothing from the rest of bernprim, so an agreement
between these oracles and the Bernstein construction actually means
something.  The oracles return plain floats; a caller that wants a
refinement gap makes the second call itself, e.g.
abs(simpson(f, u, n) - simpson(f, u, 2 * n)).  Node sums use math.fsum,
so results do not depend on any reduction order; terms that overflow to
infinities of both signs, or whose sum leaves float range, raise
OverflowError naming the rule and the interval.

simpson_rows computes many Simpson rows at once from an integrand that
takes an array of nodes: the same nodes, weights and math.fsum per row,
so each row equals simpson's bit for bit, and it fails as the loop over
simpson first fails.  It hands the integrand rows in blocks of at most
_BLOCK_NODES nodes, so memory stays bounded at any number of rows.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

__all__ = ["riemann_sum", "simpson", "simpson_rows", "central_difference"]

Integrand = Callable[[float], float]

# Takes a 1-D float array of nodes and returns the integrand at each.
ArrayIntegrand = Callable[[np.ndarray], np.ndarray]

# simpson_rows hands the integrand at most this many nodes at a time, or
# one row when a row alone is larger.
_BLOCK_NODES = 2**16

RiemannRule = Literal["left", "right", "midpoint"]

_RULE_OFFSETS = {"left": 0.0, "right": 1.0, "midpoint": 0.5}


def _check_upper(upper: float) -> float:
    upper = float(upper)
    if not 0.0 <= upper <= 1.0:
        raise ValueError(f"upper must lie in [0, 1], got {upper!r}")
    return upper


def _check_panels(panels: int, even: bool = True) -> int:
    """panels as an int (TypeError for 2.5 or 4.0, as for core's degrees), >= 1, even for Simpson."""
    panels = operator.index(panels)
    if even and (panels < 2 or panels % 2):
        raise ValueError(f"panels must be an even number >= 2, got {panels}")
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    return panels


def _fsum(rule: str, upper: float, terms: Iterable[float]) -> float:
    """math.fsum of a rule's terms; a sum without a float value raises OverflowError."""
    try:
        return math.fsum(terms)
    except ValueError:  # -inf + inf has no sum
        raise OverflowError(f"{rule} terms on [0, {upper!r}] overflow to -inf and +inf") from None
    except OverflowError:  # finite terms whose sum is beyond float range
        raise OverflowError(f"{rule} terms on [0, {upper!r}] sum beyond float range") from None


def riemann_sum(f: Integrand, upper: float, panels: int, rule: RiemannRule = "midpoint") -> float:
    """Riemann sum of f over [0, upper] with the given node rule.

    f is called exactly panels times (not at all when upper is 0).
    """
    upper = _check_upper(upper)
    panels = _check_panels(panels, even=False)
    if rule not in _RULE_OFFSETS:
        raise ValueError(f"unknown rule {rule!r}; expected left, right, or midpoint")
    if upper == 0.0:
        return 0.0
    offset = _RULE_OFFSETS[rule]
    h = upper / panels
    # Nodes as upper * fraction keeps every node inside [0, upper] exactly.
    terms = [f(upper * ((i + offset) / panels)) for i in range(panels)]
    return h * _fsum("Riemann", upper, terms)


def simpson(f: Integrand, upper: float, panels: int) -> float:
    """Composite Simpson rule over [0, upper]; panels must be even.

    f is called exactly panels + 1 times (not at all when upper is 0).
    """
    upper = _check_upper(upper)
    panels = _check_panels(panels)
    if upper == 0.0:
        return 0.0
    h = upper / panels

    def term(i: int) -> float:
        weight = 1.0 if i in (0, panels) else (4.0 if i % 2 else 2.0)
        return weight * f(upper * (i / panels))

    return (h / 3.0) * _fsum("Simpson", upper, [term(i) for i in range(panels + 1)])


def simpson_rows(f: ArrayIntegrand, uppers: Sequence[float], panels: int) -> list[float]:
    """[simpson(g, u, panels) for u in uppers], bit for bit, where f(xs) is g at each of xs.

    A row's nodes are upper * (i / panels) and its terms weight * value,
    each correctly rounded as in simpson, summed by one math.fsum and
    scaled by (h / 3.0).  A row at 0 is 0.0 and hands f no node.  Rows
    go to f in order, in blocks of at most _BLOCK_NODES nodes (one row if
    a row is larger).  A block of several rows that fails, in f or in a
    sum, is redone one row at a time, f then the sum, so the error raised
    is the one the loop over simpson meets first; a one-row block's error
    is that already.
    """
    uppers = [_check_upper(upper) for upper in uppers]
    panels = _check_panels(panels)
    fractions = np.arange(panels + 1) / panels
    weights = np.full(panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    results = [0.0] * len(uppers)
    rows = [j for j, upper in enumerate(uppers) if upper != 0.0]
    per_block = max(1, _BLOCK_NODES // (panels + 1))

    def fill(block: list[int]) -> None:
        nodes = np.multiply.outer([uppers[j] for j in block], fractions)
        values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        with np.errstate(over="ignore"):  # 4 * f may overflow, as in simpson
            terms = values * weights
        for j, row in zip(block, terms):
            upper = uppers[j]
            results[j] = (upper / panels / 3.0) * _fsum("Simpson", upper, memoryview(row))

    for start in range(0, len(rows), per_block):
        block = rows[start : start + per_block]
        try:
            fill(block)
        except Exception:
            if len(block) == 1:
                raise
            for j in block:
                fill([j])
    return results


def central_difference(f: Integrand, x: float, h: float = 1e-5) -> float:
    """Symmetric difference quotient (f(x+h) - f(x-h)) / (2h).

    The full stencil must fit inside [0, 1].
    """
    x = float(x)
    h = float(h)
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h!r}")
    if x - h < 0.0 or x + h > 1.0:
        raise ValueError(f"stencil [{x - h!r}, {x + h!r}] leaves [0, 1]")
    return (f(x + h) - f(x - h)) / (2.0 * h)
