"""Bernstein approximants and explicit polynomial antiderivatives on [0, 1]."""

from .core import (
    BernsteinPoly,
    EvaluationError,
    RealFunction,
    SupNormEstimate,
    antiderivative_poly,
    basis_all,
    basis_derivative,
    basis_eval,
    bernstein_approximant,
    binomial_convention,
    derivative_poly,
    difference_quotient,
    eval_poly,
    lipschitz_delta,
    moment_sum,
    moment_sums,
    poly_values,
    primitive_approximant,
    required_degree,
    sup_norm_distance,
)
from .expr import ParseError, eval_ast, parse, to_real_function, to_text
from .quadrature import central_difference, riemann_sum, simpson

__version__ = "0.1.0"

__all__ = [
    "BernsteinPoly",
    "EvaluationError",
    "ParseError",
    "RealFunction",
    "SupNormEstimate",
    "antiderivative_poly",
    "basis_all",
    "basis_derivative",
    "basis_eval",
    "bernstein_approximant",
    "binomial_convention",
    "central_difference",
    "derivative_poly",
    "difference_quotient",
    "eval_ast",
    "eval_poly",
    "lipschitz_delta",
    "moment_sum",
    "moment_sums",
    "parse",
    "poly_values",
    "primitive_approximant",
    "required_degree",
    "riemann_sum",
    "simpson",
    "sup_norm_distance",
    "to_real_function",
    "to_text",
]
