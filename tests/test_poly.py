"""Polynomial container and evaluation: convex-combination scheme,
derivatives, and the divided-difference construction.

Oracle: `direct_sum` evaluates a coefficient vector against the basis
weights one term at a time, bypassing the evaluation scheme under test;
`mp_bernstein_sum` does the same in 40-digit arithmetic.
"""

from __future__ import annotations

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bernprim.core as core
from bernprim import (
    BernsteinPoly,
    antiderivative_poly,
    basis_eval,
    bernstein_approximant,
    derivative_poly,
    difference_quotient,
    eval_poly,
    poly_and_primitive_values,
    poly_values,
)
from bernprim.core import _BASIS_BLOCK, _window_values


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

    @pytest.mark.parametrize("degree", [2.5, 2.0, "2"])
    def test_degree_must_be_an_integer(self, degree):
        # 2.5 once raised "degree 2.5 needs 3.5 coefficients, got 3".
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            BernsteinPoly(degree, (0.0, 1.0, 2.0))

    def test_numpy_integer_degree_is_kept_as_an_int(self):
        poly = BernsteinPoly(np.int64(2), (0.0, 0.5, 1.0))
        assert type(poly.degree) is int
        assert poly == BernsteinPoly(2, (0.0, 0.5, 1.0))
        assert str(pytest.raises(ValueError, BernsteinPoly, -1, ()).value) == "degree must be >= 0, got -1"

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
        # The first point outside [0, 1], nan included, is named.
        for outside, shown in (([0.0, 1.5, 2.0], "1.5"), ([-0.5, 0.5], "-0.5"), ([0.5, np.nan], "nan")):
            with pytest.raises(ValueError, match=rf"^x must lie in \[0, 1\], got {shown}$"):
                poly_values(poly, np.array(outside))


def mp_bernstein_sum(coeffs, x: float):
    """sum c_m b_{m,n}(x) in 40-digit arithmetic, x taken as the exact double.

    Sums |m - mode| <= 10 sqrt(n) + 10 from the mode outward; by
    Hoeffding's bound the omitted weights total below 1e-80.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        n = len(coeffs) - 1
        odds = mpmath.mpf(x) / (1 - mpmath.mpf(x))
        mode = min(int(x * (n + 1)), n)
        at_mode = mpmath.binomial(n, mode) * mpmath.mpf(x) ** mode * (1 - mpmath.mpf(x)) ** (n - mode)
        half = int(10 * math.sqrt(n)) + 10
        total = at_mode * coeffs[mode]
        weight = at_mode
        for m in range(mode, min(n, mode + half)):
            weight *= odds * (n - m) / (m + 1)
            total += weight * coeffs[m + 1]
        weight = at_mode
        for m in range(mode, max(0, mode - half), -1):
            weight *= m / (odds * (n - m + 1))
            total += weight * coeffs[m - 1]
        return total


class TestWindowEvaluation:
    """Every degree sums a normalised window of basis weights."""

    # Measured worst case over these draws is about 4e-16 * max|c| (and
    # 3.4e-16 for n up to 100).
    _TOL = 2e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 65, 100, 1000, 10_000, 100_000])
    def test_matches_mpmath(self, n):
        rng = np.random.default_rng(n)
        for coeffs in (rng.uniform(-3.0, 3.0, n + 1), np.sin(3.0 * np.arange(n + 1) / n)):
            poly = BernsteinPoly(n, tuple(coeffs))
            scale = float(np.max(np.abs(coeffs)))
            xs = [1e-6, 0.0173, 0.5, 0.77, 1.0 - 1e-6]
            for x, value in zip(xs, poly_values(poly, np.array(xs))):
                exact = mp_bernstein_sum([float(c) for c in coeffs], x)
                assert abs(value - float(exact)) <= self._TOL * scale, (n, x)

    @given(
        coeffs=st.lists(
            st.floats(min_value=-10.0, max_value=10.0),
            min_size=1,
            max_size=140,
        ),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_stays_in_coefficient_hull(self, coeffs, x):
        poly = BernsteinPoly(len(coeffs) - 1, tuple(coeffs))
        value = eval_poly(poly, x)
        assert min(coeffs) - 1e-12 <= value <= max(coeffs) + 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 65, 101, 2049, 100_000])
    def test_poly_values_bitwise_identical_to_scalar_route(self, degree):
        rng = np.random.default_rng(degree)
        poly = BernsteinPoly(degree, tuple(rng.uniform(-1.0, 1.0, degree + 1)))
        xs = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-300, 1e-9, 1.0 - 1e-9, 1.0 - 2.0**-53]])
        values = poly_values(poly, xs)
        for x, value in zip(xs, values):
            assert value == eval_poly(poly, float(x))
        assert (values[0], values[40]) == (poly.coeffs[0], poly.coeffs[-1])

    @pytest.mark.parametrize("degree", [1, 2, 65, 101, 1160, 8081, 100_000])
    def test_bitwise_identical_across_block_boundaries(self, degree):
        # Points go _BASIS_BLOCK weights at a time; a grid one short of a
        # block, exactly one, one past it, or many, gives each point the
        # value eval_poly computes for it alone.
        rng = np.random.default_rng(degree)
        poly = BernsteinPoly(degree, tuple(rng.uniform(-1.0, 1.0, degree + 1)))
        block = _BASIS_BLOCK // (2 * (math.ceil(4.6 * math.sqrt(degree)) + 2) + 1)
        for size in sorted({1, max(1, block - 1), block, block + 1, 1001}):
            xs = rng.uniform(0.0, 1.0, size)
            values = poly_values(poly, xs)
            assert [eval_poly(poly, x) for x in xs.tolist()] == values.tolist(), size

    @pytest.mark.parametrize("degree", [1, 2, 65, 101, 1160, 8081, 100_000])
    def test_extreme_points_are_finite_and_bitwise_identical(self, degree):
        rng = np.random.default_rng(degree + 1)
        poly = BernsteinPoly(degree, tuple(rng.uniform(-1.0, 1.0, degree + 1)))
        xs = np.array([5e-324, 1e-300, 1e-9, 1.0 - 1e-9, 1.0 - 2.0**-53, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = poly_values(poly, xs)
            assert [eval_poly(poly, x) for x in xs.tolist()] == values.tolist()
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("degree", [0, 1, 2, 65, 101, 1000, 100_000])
    @pytest.mark.parametrize("constant", [1.0, 5e307, -1.7e308])
    def test_constants_are_reproduced_exactly(self, degree, constant):
        # f_n reproduces constants; summing the normalised weights against
        # the coefficients' differences from the one at the mode keeps
        # that exact, and halving the coefficients first keeps every
        # difference in float range.
        poly = BernsteinPoly(degree, (constant,) * (degree + 1))
        xs = np.concatenate([np.linspace(0.0, 1.0, 1001), [5e-324, 1e-9, 1.0 - 2.0**-53]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = poly_values(poly, xs)
        assert np.all(values == constant)

    @pytest.mark.parametrize("degree", [0, 1, 65, 1000])
    @pytest.mark.parametrize("constant", [5e-324, 3 * 5e-324, 2.0**-1022 - 5e-324])
    def test_subnormal_constants_keep_all_but_their_last_bit(self, degree, constant):
        # Halving drops a subnormal's last bit (ties to even), so inside
        # (0, 1) the constant comes back as 2 * round(c / 2); the ends
        # return the coefficients themselves.
        poly = BernsteinPoly(degree, (constant,) * (degree + 1))
        values = poly_values(poly, np.linspace(0.0, 1.0, 101))
        assert (values[0], values[-1]) == (constant, constant)
        assert np.all(values[1:-1] == 2.0 * (0.5 * constant))
        assert np.all(np.abs(values - constant) <= 5e-324)


def _walked(degree: int, seed: int) -> tuple[BernsteinPoly, BernsteinPoly]:
    """A random polynomial of the degree and its antiderivative."""
    rng = np.random.default_rng(seed)
    poly = BernsteinPoly(degree, tuple(rng.uniform(-1.0, 1.0, degree + 1)))
    return poly, antiderivative_poly(poly)


class TestPrimitiveFromOneWalk:
    """poly_and_primitive_values: F_n from f_n's degree-n windows, one walk for both."""

    # F_n = sum_{m<=n} C_m b_{m,n} + x f_n / (n+1).  Measured worst case
    # 1.5 ulp of max|C| against poly_values(F_n) and 0.9 ulp against
    # mpmath, over random, sin(3x) and sqrt(x) samples.
    _ULPS = 4

    @pytest.mark.parametrize("degree", [1, 2, 65, 1160, 100_000])
    def test_first_row_is_poly_values_bit_for_bit(self, degree):
        poly, _ = _walked(degree, degree)
        xs = np.concatenate([np.linspace(0.0, 1.0, 1001), [5e-324, 1e-9, 1.0 - 2.0**-53]])
        values, _ = poly_and_primitive_values(poly, xs)
        assert list(map(float.hex, values.tolist())) == list(map(float.hex, poly_values(poly, xs).tolist()))

    @pytest.mark.parametrize("degree", [1, 2, 5, 50, 1000, 100_000])
    def test_primitive_matches_direct_evaluation_and_mpmath(self, degree):
        rng = np.random.default_rng(degree)
        samples = (rng.uniform(-3.0, 3.0, degree + 1), np.sin(3.0 * np.arange(degree + 1) / degree))
        for coeffs in samples:
            poly = BernsteinPoly(degree, tuple(coeffs))
            primitive = antiderivative_poly(poly)
            bound = self._ULPS * 2.0**-52 * max(map(abs, primitive.coeffs))
            xs = np.concatenate([rng.uniform(0.0, 1.0, 1001), [1e-6, 0.0173, 0.5, 0.77, 1.0 - 1e-6]])
            _, values = poly_and_primitive_values(poly, xs)
            assert np.max(np.abs(values - poly_values(primitive, xs))) <= bound
            for x, value in zip(xs[-5:].tolist(), values[-5:].tolist()):
                exact = mp_bernstein_sum(primitive.coeffs, x)
                assert abs(value - float(exact)) <= bound, (degree, x)

    @pytest.mark.parametrize("degree", [1, 2, 65, 100_000])
    def test_endpoints_are_exact(self, degree):
        poly, primitive = _walked(degree, degree + 2)
        values, primitive_values = poly_and_primitive_values(poly, [0.0, 1.0, 0.0])
        assert values.tolist() == [poly.coeffs[0], poly.coeffs[-1], poly.coeffs[0]]
        assert primitive_values.tolist() == [0.0, primitive.coeffs[-1], 0.0]
        assert math.copysign(1.0, primitive_values[0]) == 1.0

    @pytest.mark.parametrize("degree", [1, 65, 1160, 8081, 100_000])
    def test_bitwise_identical_across_block_boundaries(self, degree):
        # A point's row values are those it gets alone, whatever block of
        # _BASIS_BLOCK weights it lands in.
        poly, primitive = _walked(degree, degree + 3)
        rows = (poly.coeffs, primitive.coeffs[:-1])
        rng = np.random.default_rng(degree)
        block = _BASIS_BLOCK // (2 * (math.ceil(4.6 * math.sqrt(degree)) + 2) + 1)
        for size in sorted({1, max(1, block - 1), block, block + 1, 1001}):
            xs = rng.uniform(0.0, 1.0, size)
            alone = np.hstack([_window_values(rows, np.array([x])) for x in xs.tolist()])
            assert np.array(_window_values(rows, xs)).tolist() == alone.tolist(), size

    @pytest.mark.parametrize("degree", [1, 65, 1160, 8081])
    def test_the_block_budget_cannot_change_a_value(self, monkeypatch, degree):
        # _BASIS_BLOCK decides which points share a block, never a point's
        # arithmetic: every budget gives the same bits, for one row and two.
        poly, primitive = _walked(degree, degree + 4)
        xs = np.random.default_rng(degree).uniform(0.0, 1.0, 1001)
        xs = np.concatenate([xs, [0.0, 5e-324, 1e-9, 1.0 - 2.0**-53, 1.0]])
        values = set()
        for budget in (2**10, 2**12, 2**14, 2**15):
            monkeypatch.setattr(core, "_BASIS_BLOCK", budget)
            one = _window_values((poly.coeffs,), xs)
            two = _window_values((poly.coeffs, primitive.coeffs[:-1]), xs)
            values.add(tuple(map(float.hex, np.concatenate([*one, *two]).tolist())))
        assert len(values) == 1

    @pytest.mark.parametrize("degree", [1000, 8081])
    def test_block_temporaries_stay_within_the_block_size(self, degree):
        # Windows for all points at once would take points * (2 half + 1)
        # weights per temporary: 38 MB at degree 1000 and 107 MB at 8081
        # for these 16001 points.  In blocks, the peak is the arrays of
        # one entry per point or per index and a few block temporaries of
        # at most _BASIS_BLOCK weights (128 KB).
        poly, _ = _walked(degree, degree)
        xs = np.random.default_rng(degree).uniform(0.0, 1.0, 16001)
        tracemalloc.start()
        try:
            poly_and_primitive_values(poly, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (16 * xs.size + 16 * (degree + 1) + 8 * _BASIS_BLOCK)

    @pytest.mark.parametrize("degree", [1, 2, 65, 101, 1160, 8081, 100_000])
    def test_extreme_points_are_quiet_finite_and_bitwise_identical(self, degree):
        poly, _ = _walked(degree, degree + 1)
        xs = np.array([5e-324, 1e-300, 1e-9, 1.0 - 1e-9, 1.0 - 2.0**-53, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            together = np.stack(poly_and_primitive_values(poly, xs))
            alone = [np.stack(poly_and_primitive_values(poly, [x]))[:, 0] for x in xs.tolist()]
        assert together.T.tolist() == np.array(alone).tolist()
        assert np.all(np.isfinite(together))

    @pytest.mark.parametrize("constant", [1.0, 1.7e305, -1.7e305, 1.7e308, -1.7e308])
    def test_large_constants_stay_finite(self, constant):
        # F of a constant c is c x.  Its prefix sums reach 1001 c, beyond
        # float range for the largest c, but each coefficient is a prefix
        # sum over 1001, and no other step leaves float range either.
        poly = BernsteinPoly(1000, (constant,) * 1001)
        xs = np.linspace(0.0, 1.0, 1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, values = poly_and_primitive_values(poly, xs)
        assert np.all(np.abs(values - constant * xs) <= self._ULPS * 2.0**-52 * abs(constant))

    def test_validation(self):
        poly = BernsteinPoly(1, (0.0, 1.0))
        with pytest.raises(ValueError):
            poly_and_primitive_values(poly, np.array([[0.0, 0.5]]))
        for outside in ([0.0, 1.5], [-0.5, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError):
                poly_and_primitive_values(poly, np.array(outside))


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
