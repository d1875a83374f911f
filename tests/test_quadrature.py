"""Quadrature rules used as independent references elsewhere in the
suite, so they get their own closed-form pinning here.

Oracles are analytic: for f(t) = t^2 the left endpoint-rule sum over N
panels of [0, 1] is (1/3)(1 - 3/(2N) + 1/(2N^2)) exactly, the right-rule
sum mirrors it with +, and the parabolic rule is exact for cubics.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import bernprim.quadrature as quadrature
from bernprim import RealFunction, central_difference, riemann_sum, simpson
from bernprim.quadrature import simpson_rows
from corpus import BY_NAME


def left_square_closed_form(panels: int) -> float:
    return (1.0 - 3.0 / (2.0 * panels) + 1.0 / (2.0 * panels**2)) / 3.0


def right_square_closed_form(panels: int) -> float:
    return (1.0 + 3.0 / (2.0 * panels) + 1.0 / (2.0 * panels**2)) / 3.0


class TestRiemannSum:
    def test_frozen_left_square(self):
        result = riemann_sum(lambda t: t * t, 1.0, 100, rule="left")
        assert result == pytest.approx(0.32835, abs=1e-13)
        assert result == pytest.approx(left_square_closed_form(100), abs=1e-13)

    def test_frozen_right_square(self):
        result = riemann_sum(lambda t: t * t, 1.0, 100, rule="right")
        assert result == pytest.approx(0.33835, abs=1e-13)
        assert result == pytest.approx(right_square_closed_form(100), abs=1e-13)

    def test_frozen_midpoint_square(self):
        # Dyadic nodes: the 4-panel midpoint sum of t^2 is exactly 0.328125.
        result = riemann_sum(lambda t: t * t, 1.0, 4, rule="midpoint")
        assert result == 0.328125

    def test_midpoint_exact_for_linear(self):
        assert riemann_sum(lambda t: t, 1.0, 8, rule="midpoint") == 0.5
        partial = riemann_sum(lambda t: t, 0.5, 4, rule="midpoint")
        assert partial == 0.125

    def test_constant_is_exact_under_every_rule(self):
        for rule in ("left", "right", "midpoint"):
            assert riemann_sum(lambda t: 1.0, 1.0, 10, rule=rule) == 1.0

    def test_partial_upper_limits(self):
        assert riemann_sum(lambda t: 1.0, 0.0, 10) == 0.0
        result = riemann_sum(lambda t: 1.0, 0.3, 7, rule="left")
        assert result == pytest.approx(0.3, abs=1e-15)

    def test_right_rule_nodes_stay_in_domain(self):
        # The last right-rule node is the upper limit itself; an
        # evaluator that enforces [0, 1] must not be pushed outside.
        f = RealFunction(lambda x: math.sqrt(x + 0.25))
        result = riemann_sum(f, 1.0, 33, rule="right")
        assert math.isfinite(result)

    def test_first_order_convergence_ratio(self):
        exact = 1.0 / 3.0
        errors = [
            abs(riemann_sum(lambda t: t * t, 1.0, n, rule="left") - exact)
            for n in (100, 200, 400)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.9 <= coarse / fine <= 2.1

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^panels must be >= 1, got 0$"):
            riemann_sum(lambda t: t, 1.0, 0)
        with pytest.raises(ValueError):
            riemann_sum(lambda t: t, 1.0, 4, rule="trapezoid")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            riemann_sum(lambda t: t, 1.2, 4)
        with pytest.raises(TypeError):
            riemann_sum(math.sin, 1.0, 2.5)  # type: ignore[arg-type]


class TestSimpson:
    def test_exact_for_cubics(self):
        result = simpson(lambda t: t**3, 1.0, 2)
        assert result == pytest.approx(0.25, abs=1e-15)
        assert simpson(lambda t: t**3 - t, 1.0, 8) == pytest.approx(
            -0.25, abs=1e-15
        )

    def test_frozen_partial_square(self):
        assert simpson(lambda t: t * t, 0.5, 10) == pytest.approx(
            1.0 / 24.0, abs=1e-12
        )

    def test_frozen_sine(self):
        # Fourth-order truncation for sin(pi t) is h^4 * 2 pi^3 / 180:
        # about 2.05e-8 at 64 panels, 1.28e-9 at 128.
        entry = BY_NAME["sine"]
        exact = 2.0 / math.pi
        assert simpson(entry.fn, 1.0, 64) == pytest.approx(exact, abs=3e-8)
        assert simpson(entry.fn, 1.0, 128) == pytest.approx(exact, abs=1e-8)

    def test_fourth_order_convergence_ratio(self):
        entry = BY_NAME["sine"]
        exact = 2.0 / math.pi
        errors = [abs(simpson(entry.fn, 1.0, n) - exact) for n in (8, 16, 32)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 14.0 <= coarse / fine <= 18.0

    def test_agrees_with_dense_midpoint(self):
        for name in ("square", "sine", "expgrow", "kink", "rootshift"):
            fn = BY_NAME[name].fn
            for upper in (0.25, 0.5, 1.0):
                a = simpson(fn, upper, 256)
                b = riemann_sum(fn, upper, 20000, rule="midpoint")
                assert a == pytest.approx(b, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            simpson(lambda t: t, 1.0, 3)  # odd
        with pytest.raises(ValueError):
            simpson(lambda t: t, 1.0, 0)
        with pytest.raises(ValueError):
            simpson(lambda t: t, -0.1, 4)
        with pytest.raises(ValueError, match=r"^panels must be an even number >= 2, got 3$"):
            simpson(math.sin, 1.0, np.int64(3))
        for panels in (2.5, 4.0, 3.0):  # a non-integer is a TypeError, as a degree is
            with pytest.raises(TypeError):
                simpson(math.sin, 1.0, panels)  # type: ignore[arg-type]

    def test_overflow_to_both_signs_is_overflow_error(self):
        # Nodes 0.25 and 0.75 carry weight 4, so their terms are +inf and -inf.
        step = lambda t: 1e308 if t < 0.5 else -1e308  # noqa: E731
        with pytest.raises(OverflowError, match=r"^Simpson terms on \[0, 1\.0\] overflow"):
            simpson(step, 1.0, 4)
        with pytest.raises(OverflowError, match=r"^Riemann terms on \[0, 1\.0\] overflow"):
            riemann_sum(lambda t: 2 * step(t) * 1e308, 1.0, 2)
        # Overflow of one sign is a plain infinity, and an integrand's own
        # ValueError is not mistaken for an overflow.
        assert simpson(lambda t: 1e308, 1.0, 4) == math.inf
        with pytest.raises(ValueError, match="math domain error"):
            simpson(lambda t: math.log(t - 1.0), 0.5, 2)

    def test_sum_beyond_float_range_names_the_interval(self):
        # Every term is finite, but their sum is not: math.fsum's own
        # "intermediate overflow in fsum" named neither rule nor interval.
        with pytest.raises(OverflowError) as excinfo:
            simpson(lambda t: 0.4e308, 0.5, 64)
        assert str(excinfo.value) == "Simpson terms on [0, 0.5] sum beyond float range"


def sin_exp(xs: np.ndarray) -> np.ndarray:
    return np.sin(3.0 * xs) * np.exp(xs)


def one_point(f):
    """The array integrand f as a scalar one, so both rules see the same values."""
    return lambda t: float(f(np.array([t]))[0])


class TestSimpsonRows:
    """simpson_rows against the loop over simpson it replaces, by float.hex."""

    @staticmethod
    def expected(f, uppers, panels):
        return [simpson(one_point(f), u, panels).hex() for u in uppers]

    def test_rows_across_a_block_boundary_and_at_zero(self):
        # 256 panels put 255 rows in a block of 2^16 nodes; 601 rows take three.
        uppers = [i / 600 for i in range(601)]
        got = simpson_rows(sin_exp, uppers, 256)
        assert [v.hex() for v in got] == self.expected(sin_exp, uppers, 256)
        assert got[0] == 0.0

    def test_rows_larger_than_a_block_go_one_at_a_time(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 16)
        sizes = []

        def f(xs):
            sizes.append(xs.size)
            return sin_exp(xs)

        uppers = [0.0, 0.3, 1.0, 0.0, 0.7]
        got = simpson_rows(f, uppers, 20)
        assert [v.hex() for v in got] == self.expected(sin_exp, uppers, 20)
        assert sizes == [21, 21, 21]

    def test_blocks_stay_under_the_bound(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 50)
        sizes = []

        def f(xs):
            sizes.append(xs.size)
            return xs * xs

        uppers = [(i + 1) / 12 for i in range(12)]
        got = simpson_rows(f, uppers, 4)
        assert [v.hex() for v in got] == self.expected(lambda xs: xs * xs, uppers, 4)
        assert sizes == [50, 10]  # 10 rows of 5 nodes fill a block of 50

    def test_overflow_messages_match_simpson(self):
        big = lambda xs: np.full(xs.shape, 0.4e308)  # noqa: E731
        with pytest.raises(OverflowError) as excinfo:
            simpson_rows(big, [0.25, 0.5], 64)
        assert str(excinfo.value) == "Simpson terms on [0, 0.25] sum beyond float range"
        step = lambda xs: np.where(xs < 0.5, 1e308, -1e308)  # noqa: E731
        with pytest.raises(OverflowError, match=r"^Simpson terms on \[0, 1\.0\] overflow"):
            simpson_rows(step, [1.0], 4)
        assert simpson_rows(lambda xs: np.full(xs.shape, 1e308), [1.0], 4) == [math.inf]

    def test_a_failing_block_fails_as_the_loop_over_simpson(self):
        # One block holds both rows: the row at 0.25 sums beyond float range
        # before f fails in the row at 0.75, so the block is redone row by row.
        sizes = []

        def f(xs):
            sizes.append(xs.size)
            if (xs > 0.5).any():
                raise ZeroDivisionError("f fails beyond 0.5")
            return np.full(xs.shape, 0.4e308)

        uppers = [0.25, 0.75]
        with pytest.raises(OverflowError) as loop:
            [simpson(one_point(f), u, 64) for u in uppers]
        sizes.clear()
        with pytest.raises(OverflowError) as rows:
            simpson_rows(f, uppers, 64)
        assert str(rows.value) == str(loop.value) == "Simpson terms on [0, 0.25] sum beyond float range"
        assert sizes == [130, 65]

    def test_validation(self):
        with pytest.raises(ValueError):
            simpson_rows(sin_exp, [0.5], 3)
        with pytest.raises(ValueError):
            simpson_rows(sin_exp, [0.5, 1.2], 4)
        with pytest.raises(TypeError):
            simpson_rows(np.sin, [1.0], 4.0)  # type: ignore[arg-type]
        assert simpson_rows(sin_exp, [], 4) == []


class TestCentralDifference:
    def test_matches_known_derivative(self):
        entry = BY_NAME["sine"]
        got = central_difference(entry.fn, 0.25)
        assert got == pytest.approx(math.pi * math.cos(math.pi / 4.0), abs=1e-8)

    def test_quadratic(self):
        assert central_difference(lambda t: t * t, 0.5, h=1e-5) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_constant_is_exactly_zero(self):
        assert central_difference(lambda t: 0.8, 0.3, h=1e-4) == 0.0

    def test_polynomial_antiderivative_slope_matches_approximant(self):
        from bernprim import bernstein_approximant, eval_poly, primitive_approximant

        entry = BY_NAME["sine"]
        big = primitive_approximant(entry.fn, 20)
        small = bernstein_approximant(entry.fn, 20)
        got = central_difference(lambda t: eval_poly(big, t), 0.5, h=1e-4)
        assert got == pytest.approx(eval_poly(small, 0.5), abs=1e-6)

    def test_stencil_must_fit_domain(self):
        with pytest.raises(ValueError):
            central_difference(lambda t: t, 0.0)
        with pytest.raises(ValueError):
            central_difference(lambda t: t, 1.0)
        with pytest.raises(ValueError):
            central_difference(lambda t: t, 0.5, h=0.6)
        with pytest.raises(ValueError):
            central_difference(lambda t: t, 0.5, h=0.0)


class TestResultShape:
    def test_float_from_one_evaluation_per_node(self):
        # No hidden refinement: the rule's own nodes are all that is evaluated.
        calls = []

        def f(t):
            calls.append(t)
            return t * t

        for upper in (0.3, 1.0):
            for panels in (2, 12):
                calls.clear()
                assert type(simpson(f, upper, panels)) is float
                assert len(calls) == panels + 1
                calls.clear()
                assert type(riemann_sum(f, upper, panels)) is float
                assert len(calls) == panels

    def test_determinism(self):
        entry = BY_NAME["cosine"]
        assert simpson(entry.fn, 1.0, 32) == simpson(entry.fn, 1.0, 32)
