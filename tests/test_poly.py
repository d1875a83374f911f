"""Polynomial container and evaluation: convex-combination scheme,
derivatives, and the divided-difference construction.

Oracle: `direct_sum` evaluates a coefficient vector against the basis
weights one term at a time, bypassing the evaluation scheme under test.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernprim import (
    BernsteinPoly,
    basis_eval,
    bernstein_approximant,
    derivative_poly,
    difference_quotient,
    eval_poly,
    poly_values,
)


def direct_sum(coeffs, x: float) -> float:
    n = len(coeffs) - 1
    return math.fsum(c * basis_eval(m, n, x) for m, c in enumerate(coeffs))


class TestBernsteinPoly:
    def test_container_roundtrip(self):
        poly = BernsteinPoly(2, (0.0, 0.5, 1.0))
        assert poly.degree == 2
        assert poly.coeffs == (0.0, 0.5, 1.0)
        assert BernsteinPoly.from_dict(poly.to_dict()) == poly

    def test_validation(self):
        with pytest.raises(ValueError):
            BernsteinPoly(2, (0.0, 1.0))  # wrong length
        with pytest.raises(ValueError):
            BernsteinPoly(-1, ())
        with pytest.raises(ValueError):
            BernsteinPoly(1, (0.0, float("nan")))
        with pytest.raises(ValueError):
            BernsteinPoly(1, (0.0, float("inf")))

    def test_call_matches_eval_poly(self):
        poly = BernsteinPoly(3, (0.0, 0.25, 0.75, 1.0))
        for x in (0.0, 0.3, 1.0):
            assert poly(x) == eval_poly(poly, x)


class TestEvalPoly:
    def test_frozen_square(self):
        poly = BernsteinPoly(2, (0.0, 0.0, 1.0))
        assert eval_poly(poly, 0.5) == 0.25

    def test_endpoints_reproduce_end_coefficients(self):
        poly = BernsteinPoly(4, (0.7, -0.1, 0.2, 0.9, -0.3))
        assert eval_poly(poly, 0.0) == 0.7
        assert eval_poly(poly, 1.0) == -0.3

    @pytest.mark.parametrize("degree", [0, 1, 2, 7, 40, 200])
    def test_matches_direct_summation_oracle(self, degree):
        rng = random.Random(1000 + degree)
        coeffs = tuple(rng.uniform(-2.0, 2.0) for _ in range(degree + 1))
        poly = BernsteinPoly(degree, coeffs)
        for x in (0.0, 0.08, 0.33, 0.5, 0.91, 1.0):
            assert eval_poly(poly, x) == pytest.approx(direct_sum(coeffs, x), abs=1e-12)

    def test_domain_rejected(self):
        poly = BernsteinPoly(1, (0.0, 1.0))
        with pytest.raises(ValueError):
            eval_poly(poly, 1.0001)

    @given(
        coeffs=st.lists(
            st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=20
        ),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_convex_combinations_stay_in_coefficient_hull(self, coeffs, x):
        poly = BernsteinPoly(len(coeffs) - 1, tuple(coeffs))
        value = eval_poly(poly, x)
        assert min(coeffs) - 1e-12 <= value <= max(coeffs) + 1e-12


class TestPolyValues:
    def test_bitwise_identical_to_scalar_route(self):
        rng = random.Random(77)
        coeffs = tuple(rng.uniform(-1.0, 1.0) for _ in range(13))
        poly = BernsteinPoly(12, coeffs)
        xs = np.linspace(0.0, 1.0, 101)
        values = poly_values(poly, xs)
        for x, value in zip(xs, values):
            assert value == eval_poly(poly, float(x))

    def test_shape_and_validation(self):
        poly = BernsteinPoly(1, (0.0, 1.0))
        assert poly_values(poly, np.array([0.0, 0.5, 1.0])).shape == (3,)
        with pytest.raises(ValueError):
            poly_values(poly, np.array([[0.0, 0.5]]))
        for outside in ([0.0, 1.5], [-0.5, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError):
                poly_values(poly, np.array(outside))


class TestDerivativePoly:
    def test_frozen_linear_ramp(self):
        poly = BernsteinPoly(5, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
        deriv = derivative_poly(poly)
        assert deriv.degree == 4
        assert deriv.coeffs == pytest.approx([1.0] * 5, abs=1e-14)

    def test_degree_zero_derivative_is_zero(self):
        deriv = derivative_poly(BernsteinPoly(0, (3.5,)))
        assert deriv.degree == 0
        assert deriv.coeffs == (0.0,)

    @pytest.mark.parametrize("degree", [1, 4, 30])
    def test_matches_finite_difference(self, degree):
        rng = random.Random(degree)
        poly = BernsteinPoly(
            degree, tuple(rng.uniform(-1.0, 1.0) for _ in range(degree + 1))
        )
        deriv = derivative_poly(poly)
        h = 1e-6
        for x in (0.2, 0.5, 0.8):
            fd = (eval_poly(poly, x + h) - eval_poly(poly, x - h)) / (2.0 * h)
            assert eval_poly(deriv, x) == pytest.approx(fd, abs=1e-6)


class TestDifferenceQuotient:
    def test_frozen_pure_square(self):
        # x^2 in degree-2 form is (0, 0, 1); (x^2 - c^2)/(x - c) = x + c,
        # whose degree-1 coefficients are the endpoint values 0.5 and 1.5.
        quotient = difference_quotient(BernsteinPoly(2, (0.0, 0.0, 1.0)), 0.5)
        assert quotient.degree == 1
        assert quotient.coeffs == pytest.approx([0.5, 1.5], abs=1e-15)
        assert eval_poly(quotient, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_square_approximant(self):
        # The degree-2 approximant of x^2 is x/2 + x^2/2; its quotient at
        # c = 1/2 is x/2 + 3/4 with endpoint coefficients 0.75 and 1.25,
        # and the removable-singularity value is still exactly 1.
        f_n = bernstein_approximant(lambda x: x * x, 2)
        quotient = difference_quotient(f_n, 0.5)
        assert quotient.coeffs == pytest.approx([0.75, 1.25], abs=1e-15)
        assert eval_poly(quotient, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_removable_singularity_value_equals_derivative(self):
        f_n = bernstein_approximant(lambda x: math.sin(math.pi * x), 40)
        deriv = derivative_poly(f_n)
        for c in (0.1, 0.5, 0.9):
            quotient = difference_quotient(f_n, c)
            assert eval_poly(quotient, c) == pytest.approx(
                eval_poly(deriv, c), abs=1e-9
            )

    @pytest.mark.parametrize("degree", [1, 3, 11, 60])
    def test_reconstruction_identity(self, degree):
        rng = random.Random(9000 + degree)
        poly = BernsteinPoly(
            degree, tuple(rng.uniform(-1.0, 1.0) for _ in range(degree + 1))
        )
        for c in (0.25, 0.5, 0.75):
            quotient = difference_quotient(poly, c)
            f_c = eval_poly(poly, c)
            for x in np.linspace(0.0, 1.0, 41):
                lhs = (float(x) - c) * eval_poly(quotient, float(x)) + f_c
                assert lhs == pytest.approx(eval_poly(poly, float(x)), abs=1e-10)

    def test_validation(self):
        poly = BernsteinPoly(2, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            difference_quotient(poly, 0.0)
        with pytest.raises(ValueError):
            difference_quotient(poly, 1.0)
        with pytest.raises(ValueError):
            difference_quotient(BernsteinPoly(0, (1.0,)), 0.5)
