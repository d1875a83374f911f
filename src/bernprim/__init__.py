"""Bernstein approximants and explicit polynomial antiderivatives on [0, 1].

Each module's __all__ is its list of public names.  The package exports
all of core's and, of expr and quadrature, the names imported below.
"""

from . import core
from .core import *  # noqa: F403
from .expr import ParseError, eval_ast, parse, to_real_function, to_text
from .quadrature import central_difference, riemann_sum, simpson

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    "ParseError",
    "eval_ast",
    "parse",
    "to_real_function",
    "to_text",
    "central_difference",
    "riemann_sum",
    "simpson",
]
