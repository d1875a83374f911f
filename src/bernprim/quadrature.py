"""Quadrature and finite-difference oracles, independent of the basis code.

This module imports nothing from the rest of bernprim, so an agreement
between these oracles and the Bernstein construction actually means
something.  The oracles return plain floats; a caller that wants a
refinement gap makes the second call itself, e.g.
abs(simpson(f, u, n) - simpson(f, u, 2 * n)).  Node sums use math.fsum,
so results do not depend on any reduction order; terms that overflow to
infinities of both signs raise OverflowError.
"""

from __future__ import annotations

import math
from typing import Callable, Literal

__all__ = ["riemann_sum", "simpson", "central_difference"]

Integrand = Callable[[float], float]

RiemannRule = Literal["left", "right", "midpoint"]

_RULE_OFFSETS = {"left": 0.0, "right": 1.0, "midpoint": 0.5}


def _check_upper(upper: float) -> float:
    upper = float(upper)
    if not 0.0 <= upper <= 1.0:
        raise ValueError(f"upper must lie in [0, 1], got {upper!r}")
    return upper


def _fsum(rule: str, upper: float, terms: list[float]) -> float:
    """math.fsum of a rule's terms; infinities of both signs raise OverflowError."""
    try:
        return math.fsum(terms)
    except ValueError:  # -inf + inf has no sum
        raise OverflowError(f"{rule} terms on [0, {upper!r}] overflow to -inf and +inf") from None


def riemann_sum(f: Integrand, upper: float, panels: int, rule: RiemannRule = "midpoint") -> float:
    """Riemann sum of f over [0, upper] with the given node rule.

    f is called exactly panels times (not at all when upper is 0).
    """
    upper = _check_upper(upper)
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
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
    if panels < 2 or panels % 2:
        raise ValueError(f"panels must be an even number >= 2, got {panels}")
    if upper == 0.0:
        return 0.0
    h = upper / panels

    def term(i: int) -> float:
        weight = 1.0 if i in (0, panels) else (4.0 if i % 2 else 2.0)
        return weight * f(upper * (i / panels))

    return (h / 3.0) * _fsum("Simpson", upper, [term(i) for i in range(panels + 1)])


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
