"""Approximant construction, its polynomial antiderivative, and the
degree-bound helpers.

Oracles
-------
* `primitive_double_sum` rebuilds the antiderivative from its defining
  double sum over basis weights, term by term — no prefix-sum shortcut,
  no shared code with the implementation.
* Closed forms for the square function pin the approximation error
  exactly: B_n(x^2) - x^2 = x(1-x)/n and the antiderivative analogue
  (x^2/2 - x^3/3)/n.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bernprim import (
    BernsteinPoly,
    EvaluationError,
    RealFunction,
    SupNormEstimate,
    antiderivative_poly,
    basis_eval,
    bernstein_approximant,
    derivative_poly,
    eval_poly,
    lipschitz_delta,
    poly_values,
    primitive_approximant,
    required_degree,
    sup_norm_distance,
)
from corpus import BY_NAME, CORPUS


def primitive_double_sum(f, n: int, x: float) -> float:
    total = 0.0
    for m in range(n + 1):
        tail = math.fsum(basis_eval(j, n + 1, x) for j in range(m + 1, n + 2))
        total += f(m / n) * tail
    return total / (n + 1)


class TestBernsteinApproximant:
    def test_frozen_linear_coefficients(self):
        poly = bernstein_approximant(lambda x: x, 5)
        assert poly.degree == 5
        assert poly.coeffs == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

    def test_frozen_square_at_half(self):
        poly = bernstein_approximant(lambda x: x * x, 10)
        assert eval_poly(poly, 0.5) == pytest.approx(0.275, abs=1e-15)

    def test_square_law_exact(self):
        # B_n(x^2)(x) = x^2 + x(1-x)/n, at every degree and point.
        for n in (1, 10, 100, 1000):
            poly = bernstein_approximant(lambda x: x * x, n)
            for x in (0.0, 0.25, 0.5, 0.77, 1.0):
                assert eval_poly(poly, x) == pytest.approx(
                    x * x + x * (1.0 - x) / n, abs=1e-12
                )

    def test_affine_functions_reproduced(self):
        poly = bernstein_approximant(lambda x: 0.3 - 0.7 * x, 17)
        for x in np.linspace(0.0, 1.0, 41):
            assert eval_poly(poly, float(x)) == pytest.approx(
                0.3 - 0.7 * float(x), abs=1e-12
            )

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            bernstein_approximant(lambda x: x, 0)


def _random_signs(seed: int, size: int) -> tuple[float, ...]:
    rng = random.Random(seed)
    return tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30, 30) for _ in range(size))


class TestAntiderivativePoly:
    @pytest.mark.parametrize(
        "coeffs",
        [
            (1e300, 1.0, -1e300, 1.0, 1e-300, -1.0),
            (1.0, 1e-16, 1e-16, -1.0, 1e-16),
            (5e-324, 2.2250738585072014e-308, -5e-324, 1e-310, 0.0, -0.0),
            (1.7e308, -1.7e308, 1.7e308),
            _random_signs(1, 9),
            _random_signs(2, 200),
        ],
        ids=["cancellation", "small-after-one", "subnormals", "near-overflow", "signs-9", "signs-200"],
    )
    def test_coefficients_are_rounded_exact_prefix_sums(self, coeffs):
        n = len(coeffs) - 1
        primitive = antiderivative_poly(BernsteinPoly(n, coeffs))
        assert primitive.degree == n + 1
        expected = [float(sum(Fraction(c) for c in coeffs[:j]) / (n + 1)) for j in range(n + 2)]
        assert [c.hex() for c in primitive.coeffs] == [c.hex() for c in expected]

    def test_degree_zero(self):
        assert antiderivative_poly(BernsteinPoly(0, (2.5,))).coeffs == (0.0, 2.5)

    def test_overflowing_prefix_sum_gives_finite_coefficients(self):
        # The prefix sum 3.4e308 is beyond float range; its quotient by n + 1 is not.
        assert antiderivative_poly(BernsteinPoly(1, (1.7e308, 1.7e308))).coeffs == (0.0, 8.5e307, 1.7e308)


class TestPrimitiveApproximant:
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_samples_f_once_per_node(self, n):
        calls = []
        primitive_approximant(lambda x: calls.append(x) or x, n)
        assert calls == [m / n for m in range(n + 1)]

    def test_frozen_constant(self):
        poly = primitive_approximant(lambda x: 1.0, 3)
        assert poly.degree == 4
        assert poly.coeffs == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert eval_poly(poly, 0.6) == pytest.approx(0.6, abs=1e-12)

    def test_frozen_square_low_degree(self):
        poly = primitive_approximant(lambda x: x * x, 2)
        assert poly.degree == 3
        assert poly.coeffs == pytest.approx([0.0, 0.0, 1 / 12, 5 / 12], abs=1e-16)

    def test_starts_at_exact_zero(self):
        for entry in CORPUS:
            poly = primitive_approximant(entry.fn, 23)
            assert eval_poly(poly, 0.0) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_double_sum_oracle(self, n):
        for name in ("square", "sine", "kink"):
            f = BY_NAME[name].fn
            poly = primitive_approximant(f, n)
            for x in (0.1, 0.4, 0.5, 0.9, 1.0):
                assert eval_poly(poly, x) == pytest.approx(
                    primitive_double_sum(f, n, x), abs=1e-13
                )

    def test_square_antiderivative_law(self):
        # F_n(x^2)(x) - x^3/3 = (x^2/2 - x^3/3)/n exactly.
        for n in (10, 100):
            poly = primitive_approximant(lambda x: x * x, n)
            for x in (0.2, 0.5, 1.0):
                expected = x**3 / 3.0 + (x * x / 2.0 - x**3 / 3.0) / n
                assert eval_poly(poly, x) == pytest.approx(expected, abs=1e-12)

    def test_derivative_recovers_samples_to_rounding(self):
        for name in ("cubic", "sine", "expgrow", "kink"):
            f = BY_NAME[name].fn
            for n in (5, 50, 200):
                primitive = primitive_approximant(f, n)
                recovered = derivative_poly(primitive)
                scale = (n + 1) * max(abs(c) for c in primitive.coeffs)
                for m in range(n + 1):
                    sample = f(m / n)
                    allowed = 4.0 * float(np.spacing(max(scale, abs(sample))))
                    assert abs(recovered.coeffs[m] - sample) <= allowed

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            primitive_approximant(lambda x: x, 0)


class TestConvergence:
    def test_errors_shrink_monotonically(self):
        degrees = [10, 40, 160, 640]
        for name in ("square", "sine", "kink"):
            entry = BY_NAME[name]
            errors = [
                sup_norm_distance(
                    bernstein_approximant(entry.fn, n), entry.fn, 1001
                ).value
                for n in degrees
            ]
            assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_smooth_functions_are_close_by_640(self):
        for name in ("square", "sine"):
            entry = BY_NAME[name]
            err = sup_norm_distance(
                bernstein_approximant(entry.fn, 640), entry.fn, 1001
            ).value
            assert err < 0.01

    def test_kink_converges_at_root_n_rate(self):
        # The corner at 1/2 caps the rate near 1/sqrt(2 pi n): about
        # 0.0158 at n=640, so 0.01 is out of reach there but 0.02 is safe.
        entry = BY_NAME["kink"]
        err = sup_norm_distance(bernstein_approximant(entry.fn, 640), entry.fn, 1001).value
        assert 0.01 < err < 0.02


class TestDegreeBound:
    def test_frozen_values(self):
        assert required_degree(1.0, 0.2, 0.1) == 2001
        assert required_degree(1.0, 4.0, 1.0) == 2
        assert required_degree(0.5, 0.1, 0.05) == 8001
        assert required_degree(0.5, 0.5, 0.25) == 65
        assert required_degree(0.5, 0.25, 0.125) == 513

    def test_strictly_greater_than_quotient(self):
        for sup, eps, delta in [(1.0, 0.2, 0.1), (0.5, 0.5, 0.25), (0.3, 0.17, 0.4)]:
            n = required_degree(sup, eps, delta)
            assert n > 4.0 * sup / (eps * delta * delta) - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            required_degree(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            required_degree(1.0, -0.1, 0.1)
        with pytest.raises(ValueError):
            required_degree(1.0, 0.1, 1.5)

    def test_lipschitz_delta(self):
        assert lipschitz_delta(1.0, 0.2) == 0.1
        assert lipschitz_delta(1.0, 0.5) == 0.25
        assert lipschitz_delta(1.0, 4.0) == 1.0
        with pytest.raises(ValueError):
            lipschitz_delta(0.0, 0.1)

    def test_bound_actually_suffices(self):
        eps = 0.5
        for name in ("linear", "square", "rootshift", "kink", "tent"):
            entry = BY_NAME[name]
            delta = lipschitz_delta(entry.lipschitz, eps)
            n = required_degree(entry.sup, eps, delta)
            poly = bernstein_approximant(entry.fn, n)
            assert sup_norm_distance(poly, entry.fn, 501).value < eps


class TestSupNormDistance:
    def test_frozen_square_error(self):
        poly = bernstein_approximant(lambda x: x * x, 10)
        estimate = sup_norm_distance(poly, lambda x: x * x, 1001)
        assert isinstance(estimate, SupNormEstimate)
        assert estimate.value == pytest.approx(0.025, abs=1e-9)
        assert estimate.argmax == 0.5

    def test_frozen_primitive_error(self):
        poly = primitive_approximant(lambda x: x * x, 10)
        estimate = sup_norm_distance(poly, lambda x: x**3 / 3.0, 1001)
        assert estimate.value == pytest.approx(1.0 / 60.0, abs=1e-9)
        assert estimate.argmax == 1.0

    def test_first_grid_point_wins_ties(self):
        estimate = sup_norm_distance(lambda x: abs(x - 0.5), lambda x: 0.0, 101)
        assert estimate.value == 0.5
        assert estimate.argmax == 0.0  # x = 1.0 ties but comes later

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sup_norm_distance(lambda x: x, lambda x: x, 1)

    def test_grid_size_must_be_an_integer(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            sup_norm_distance(lambda x: x, lambda x: x, 5.0)
        with pytest.raises(ValueError, match="^grid_size must be >= 2, got 1$"):
            sup_norm_distance(lambda x: x, lambda x: x, 1)

    def test_real_function_is_evaluated_on_the_grid_in_one_batch(self):
        # sup_norm_distance hands a RealFunction the whole grid through values().
        grids = []
        f = RealFunction(lambda x: x * x, batch=lambda xs: grids.append(xs.copy()) or xs * xs)
        grids.clear()
        poly = bernstein_approximant(math.cos, 8)
        estimate = sup_norm_distance(f, poly, 11)
        assert [grid.tolist() for grid in grids] == [[i / 10 for i in range(11)]]
        expected = sup_norm_distance(lambda x: x * x, poly, 11)
        assert (estimate.value, estimate.argmax) == (expected.value, expected.argmax)


class TestPlainCallables:
    """bernstein_approximant and sup_norm_distance call a plain callable on Python floats."""

    def test_pole_raises_as_python_arithmetic_does(self):
        # Called on numpy.float64, 1 / 0.0 was inf with a RuntimeWarning,
        # and sup_norm_distance returned SupNormEstimate(value=inf, argmax=0.0).
        with pytest.raises(ZeroDivisionError):
            sup_norm_distance(BernsteinPoly(1, (0.0, 1.0)), lambda x: 1 / x, 5)
        with pytest.raises(ZeroDivisionError):
            bernstein_approximant(lambda x: 1 / x, 4)

    def test_points_arrive_as_floats(self):
        seen = []

        def f(x):
            seen.append(type(x))
            return x

        sup_norm_distance(f, lambda x: 0.0, 5)
        assert seen == [float] * 5
        seen.clear()
        bernstein_approximant(f, 4)
        assert seen == [float] * 5

    def test_degree_must_be_an_integer(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            bernstein_approximant(math.sin, 4.0)
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            bernstein_approximant(math.sin, 0)


class TestRealFunction:
    def test_probe_rejects_partial_functions(self):
        with pytest.raises(EvaluationError, match="probe"):
            RealFunction(math.log)

    def test_probe_rejects_non_finite(self):
        with pytest.raises(EvaluationError):
            RealFunction(lambda x: float("inf") if x > 0.9 else x)

    def test_call_rejects_a_non_finite_value(self):
        f = RealFunction(lambda x: 1e308 * 10 if x == 0.3 else 0.0)  # the probe grid misses 0.3
        with pytest.raises(EvaluationError, match=r"^evaluator returned non-finite value inf at x=0\.3$"):
            f(0.3)

    def test_call_checks_domain(self):
        f = RealFunction(lambda x: x)
        assert f(0.5) == 0.5
        with pytest.raises(ValueError):
            f(-0.2)

    def test_works_as_approximant_input(self):
        f = RealFunction(lambda x: x * x)
        poly = bernstein_approximant(f, 10)
        assert eval_poly(poly, 0.5) == pytest.approx(0.275, abs=1e-15)
