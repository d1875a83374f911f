"""Basis-function layer: binomials, single weights, full rows, moments.

Oracles
-------
* `exact_basis` computes the weight in exact rational arithmetic
  (`fractions.Fraction` of the float inputs), independent of every code
  path under test.
* `mp_basis` computes the weight with 40-digit `mpmath`, for degrees
  where exact rationals would be too slow.
* `fd_derivative` checks the closed-form basis derivative against a
  central difference.
* Windowed moment sums are checked against the same sums over the full
  row from `basis_all`.
"""

from __future__ import annotations

import hashlib
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bernprim.core as core
from bernprim import (
    basis_all,
    basis_derivative,
    basis_eval,
    binomial_convention,
    moment_sum,
    moment_sums,
)
from bernprim.core import _window_half

# Degrees for the mpmath comparison: naive product (10), just past its
# cutoff (60), and Loader's form up to the CLI's MAX_DEGREE.
ACCURACY_DEGREES = [10, 60, 1000, 2001, 100000]
ACCURACY_POINTS = [1e-4, 0.003, 0.1, 0.37, 0.5, 0.77, 0.93, 0.9995]


def exact_basis(m: int, n: int, x: float) -> Fraction:
    if m < 0 or m > n:
        return Fraction(0)
    fx = Fraction(x)
    return math.comb(n, m) * fx**m * (1 - fx) ** (n - m)


def mp_basis(m: int, n: int, x: float):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        fx = mpmath.mpf(x)
        return mpmath.binomial(n, m) * fx**m * (1 - fx) ** (n - m)


def relative_error(m: int, n: int, x: float) -> float:
    exact = mp_basis(m, n, x)
    return float(abs(basis_eval(m, n, x) - exact) / exact)


def mode_of(n: int, x: float) -> int:
    return min(int(x * (n + 1)), n)


def fd_derivative(m: int, n: int, x: float, h: float = 1e-6) -> float:
    return (basis_eval(m, n, x + h) - basis_eval(m, n, x - h)) / (2.0 * h)


class TestBinomialConvention:
    def test_frozen_values(self):
        assert binomial_convention(4, 2) == 6
        assert binomial_convention(3, 5) == 0
        assert binomial_convention(7, 0) == 1
        assert binomial_convention(0, 0) == 1
        assert binomial_convention(7, -1) == 0

    def test_exact_integers_at_large_scale(self):
        value = binomial_convention(300, 150)
        assert isinstance(value, int)
        assert value == math.comb(300, 150)
        # Far beyond float range, still exact.
        assert binomial_convention(3000, 1500).bit_length() > 2000

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            binomial_convention(-1, 0)


class TestBasisEval:
    def test_frozen_values(self):
        assert basis_eval(2, 4, 0.5) == 0.375
        assert basis_eval(-1, 3, 0.2) == 0.0
        assert basis_eval(5, 3, 0.9) == 0.0
        assert basis_eval(0, 0, 0.7) == 1.0

    def test_endpoints(self):
        assert basis_eval(0, 6, 0.0) == 1.0
        assert basis_eval(3, 6, 0.0) == 0.0
        assert basis_eval(6, 6, 1.0) == 1.0
        assert basis_eval(2, 6, 1.0) == 0.0

    @pytest.mark.parametrize("n", [1, 10, 50, 80, 200, 701])
    def test_matches_exact_rational_oracle(self, n):
        for x in (0.1, 0.37, 0.5, 0.93):
            for m in {0, 1, n // 3, n // 2, n - 1, n}:
                expected = float(exact_basis(m, n, x))
                got = basis_eval(m, n, x)
                assert got == pytest.approx(expected, rel=1e-13, abs=5e-308)

    def test_huge_degree_does_not_overflow(self):
        value = basis_eval(5000, 10000, 0.5)
        assert 0.0 < value < 1.0 and math.isfinite(value)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            basis_eval(1, 3, -0.1)
        with pytest.raises(ValueError):
            basis_eval(1, 3, 1.1)

    @given(
        n=st.integers(min_value=0, max_value=120),
        m=st.integers(min_value=-2, max_value=122),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_always_in_unit_range(self, n, m, x):
        value = basis_eval(m, n, x)
        assert 0.0 <= value <= 1.0


class TestBasisEvalAccuracy:
    """basis_eval against 40-digit mpmath, at the mode and across the window."""

    @pytest.mark.parametrize("n", ACCURACY_DEGREES)
    def test_mode_weight_to_a_few_ulp(self, n):
        for x in ACCURACY_POINTS:
            assert relative_error(mode_of(n, x), n, x) <= 1e-14, x

    @pytest.mark.parametrize("n", ACCURACY_DEGREES)
    def test_window_weights(self, n):
        # Edges, quarter and half points, and near neighbours of the mode;
        # weights below the normal range carry no relative accuracy.
        half = _window_half(n)
        for x in ACCURACY_POINTS:
            mode = mode_of(n, x)
            offsets = (-half, -half // 2, -half // 4, -3, -1, 1, 2, half // 4, half // 2, half)
            for m in sorted({min(max(mode + k, 0), n) for k in offsets}):
                if mp_basis(m, n, x) > 1e-300:
                    assert relative_error(m, n, x) <= 5e-13, (m, x)


# SHA-256 of basis_all(n, x).tobytes(), first 16 hex digits, at each x of
# FROZEN_ROW_POINTS in turn: frozen rows from the naive product (n <= 50) and
# Loader's form, at the endpoints, subnormal x and the last double below 1.
FROZEN_ROW_POINTS = (0.0, 1.0, 5e-324, 1e-310, 0.3, 1.0 - 2**-53)
FROZEN_ROW_DIGESTS = {
    0: ("6c3c396ed6b5c36d",) * 6,
    1: ("3239b05c38b825eb", "fc62429c3e69001d", "901ece7caf43139a",
        "e252c19d052e5758", "9db0b09c85198a36", "0096ead3fc6cd254"),
    50: ("7e8a9593ba23bd53", "0e3cd33d2fc5dd50", "6fb37566272ad0e3",
         "f2650d9314e9da21", "f7b5b8ff77018f06", "032e76be4a2cff65"),
    51: ("0defa84dc2c73c3c", "294569ff327d6057", "6ac5b7fdfe52f446",
         "3d608dea5f10ef9b", "c5d9f7da0c26115a", "09b112b539acdb39"),
    1000: ("f1f767bcef9abd99", "5ee8672ed3b7cbf8", "e2407f2e6935b61d",
           "77e12a01324e55a9", "55c39396ce0b872a", "7246d2428b8fd598"),
    100000: ("25c929b96afa0416", "d1dac5ecf1759f04", "5c6b71822f02bc69",
             "00902ba48329a8f8", "cd102c497cc62c4d", "3e6261fe0a5f7003"),
}


class TestBasisAll:
    @pytest.mark.parametrize("n", sorted(FROZEN_ROW_DIGESTS))
    def test_frozen_row_bytes(self, n):
        rows = [basis_all(n, x).tobytes() for x in FROZEN_ROW_POINTS]
        assert tuple(hashlib.sha256(row).hexdigest()[:16] for row in rows) == FROZEN_ROW_DIGESTS[n]

    def test_frozen_rows(self):
        row1 = basis_all(1, 0.25)
        assert row1.tolist() == [0.75, 0.25]
        row2 = basis_all(2, 0.5)
        assert row2.tolist() == [0.25, 0.5, 0.25]

    def test_endpoint_rows_are_exact(self):
        left = basis_all(9, 0.0)
        assert left[0] == 1.0 and not left[1:].any()
        right = basis_all(9, 1.0)
        assert right[-1] == 1.0 and not right[:-1].any()

    @pytest.mark.parametrize("n", [1, 7, 64, 500, 2000])
    def test_matches_single_weight_route(self, n):
        for x in (0.02, 0.3, 0.5, 0.77, 0.98):
            row = basis_all(n, x)
            assert row.shape == (n + 1,)
            for m in sorted({0, 1, n // 4, n // 2, (3 * n) // 4, n}):
                assert abs(row[m] - basis_eval(m, n, x)) <= 1e-13

    def test_row_sums_to_one(self):
        for n in (1, 13, 200, 1500):
            for x in (0.1, 0.5, 0.9):
                assert math.fsum(basis_all(n, x).tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            basis_all(-1, 0.5)


class TestBasisDerivative:
    def test_frozen_values(self):
        assert basis_derivative(0, 1, 0.3) == -1.0
        assert basis_derivative(1, 2, 0.5) == 0.0
        with pytest.raises(ValueError):
            basis_derivative(0, 0, 0.5)

    @pytest.mark.parametrize("n", [1, 5, 20, 50])
    def test_matches_central_difference(self, n):
        for m in range(n + 1):
            for x in (0.1, 0.4, 0.8):
                assert basis_derivative(m, n, x) == pytest.approx(
                    fd_derivative(m, n, x), abs=1e-5
                )

    def test_out_of_range_index_uses_zero_convention(self):
        # d/dx of p_{0,n} = n(p_{-1,n-1} - p_{0,n-1}) relies on the zero term.
        assert basis_derivative(0, 4, 0.25) == pytest.approx(
            -4.0 * basis_eval(0, 3, 0.25), rel=1e-15
        )


class TestMomentSum:
    def test_frozen_values(self):
        assert moment_sum(7, 0.3, "partition") == pytest.approx(1.0, abs=1e-13)
        assert moment_sum(10, 0.4, "first") == pytest.approx(4.0, abs=1e-13)
        assert moment_sum(10, 0.5, "second_central") == pytest.approx(2.5, abs=1e-13)

    def test_closed_forms_on_sampled_degrees(self):
        for n in (1, 3, 17, 88, 341):
            for x in (0.0, 0.21, 0.5, 0.86, 1.0):
                assert moment_sum(n, x, "partition") == pytest.approx(1.0, abs=1e-12)
                assert moment_sum(n, x, "first") == pytest.approx(n * x, abs=1e-9 * n)
                assert moment_sum(n, x, "second_central") == pytest.approx(
                    n * x * (1.0 - x), abs=1e-8 * n
                )

    def test_window_matches_full_row(self):
        # Log-uniform degrees up to 1e5; a few draws land on the endpoints.
        rng = random.Random(20)
        for _ in range(500):
            n = int(10 ** rng.uniform(0, 5))
            x = rng.choice((0.0, 1.0)) if rng.random() < 0.1 else rng.random()
            row = basis_all(n, x)
            m = np.arange(n + 1, dtype=float)
            full = {
                "partition": row.sum(),
                "first": np.dot(m, row),
                "second_central": np.dot((n * x - m) ** 2, row),
            }
            for kind, scale in (("partition", 1), ("first", n), ("second_central", n)):
                assert abs(moment_sum(n, x, kind) - full[kind]) <= 1e-15 * scale, (n, x, kind)

    def test_window_is_not_normalised(self, monkeypatch):
        # Were the window divided by its own sum, the partition identity
        # would hold by construction and could never FAIL.
        exact = core._basis_weight
        monkeypatch.setattr(core, "_basis_weight", lambda m, n, x: 1.001 * exact(m, n, x))
        for n in (7, 60, 1000, 100000):
            for x in (0.03, 0.5, 0.81):
                assert moment_sum(n, x, "partition") == pytest.approx(1.001, abs=1e-12)

    def test_endpoint_rows_are_exact_and_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 60, 100000):
                assert moment_sum(n, 0.0, "partition") == 1.0
                assert moment_sum(n, 1.0, "partition") == 1.0
                assert moment_sum(n, 0.0, "first") == 0.0
                assert moment_sum(n, 1.0, "first") == n
                assert moment_sum(n, 0.0, "second_central") == 0.0
                assert moment_sum(n, 1.0, "second_central") == 0.0

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            moment_sum(0, 0.5, "partition")
        with pytest.raises(ValueError):
            moment_sum(4, 0.5, "third")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            moment_sum(4, 1.5, "partition")


KINDS = ("partition", "first", "second_central")

# Sums frozen from the per-draw window walk that moment_sums replaced, by
# float.hex: (n, x, kind, sum).
FROZEN_SUMS = [
    (1, 0.5, "partition", "0x1.0000000000000p+0"),
    (7, 0.3, "first", "0x1.0ccccccccccccp+1"),
    (40, 0.3, "second_central", "0x1.0ccccccccccc2p+3"),
    (51, 0.37, "partition", "0x1.fffffffffffffp-1"),
    (1000, 0.123, "first", "0x1.ec00000000002p+6"),
    (2001, 0.999, "second_central", "0x1.ffbe6601bc993p+0"),
    (99991, 0.5, "first", "0x1.8697000000000p+15"),
    (100000, 1 / 3, "second_central", "0x1.5b38e38e38e3ap+14"),
    (100000, 2**-20, "partition", "0x1.fffffffffffffp-1"),
    (100000, 0.0, "first", "0x0.0p+0"),
    (77777, 1.0, "first", "0x1.2fd1000000000p+16"),
    (65536, 0.75, "partition", "0x1.ffffffffffffep-1"),
]


def draws(seed: int, count: int) -> tuple[list[int], list[float]]:
    """Log-uniform degrees up to 1e5; grid points, endpoints and arbitrary x."""
    rng = random.Random(seed)
    ns = [max(1, int(10 ** rng.uniform(0, 5))) for _ in range(count)]
    xs = []
    for _ in range(count):
        pick = rng.random()
        if pick < 0.1:
            xs.append(rng.choice((0.0, 1.0)))
        elif pick < 0.5:
            grid = rng.randint(3, 100001)
            xs.append(rng.randint(0, grid - 1) / (grid - 1))
        else:
            xs.append(rng.random())
    return ns, xs


class TestMomentSums:
    """The batched sums equal moment_sum's, draw by draw, bit for bit."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed,count", [(1, 1), (2, 3), (3, 25), (4, 101), (5, 400)])
    def test_equal_per_draw_moment_sum(self, kind, seed, count):
        ns, xs = draws(seed, count)
        batched = moment_sums(ns, xs, kind).tolist()
        assert [s.hex() for s in batched] == [moment_sum(n, x, kind).hex() for n, x in zip(ns, xs)]

    def test_one_kind_per_pair(self):
        ns, xs = draws(9, 300)
        kinds = [random.Random(i).choice(KINDS) for i in range(len(ns))]
        batched = moment_sums(ns, xs, kinds).tolist()
        assert [s.hex() for s in batched] == [moment_sum(*draw).hex() for draw in zip(ns, xs, kinds)]

    @pytest.mark.parametrize("n,x,kind,frozen", FROZEN_SUMS)
    def test_frozen_sums(self, n, x, kind, frozen):
        assert moment_sum(n, x, kind).hex() == frozen
        # The same draw among others, in one block or several.
        ns, xs = draws(6, 60)
        assert moment_sums([*ns, n], [*xs, x], kind)[-1].hex() == frozen

    @pytest.mark.parametrize("bound", [1, 100, 3000, 2**14])
    def test_a_row_does_not_depend_on_its_block(self, monkeypatch, bound):
        ns, xs = draws(7, 120)
        alone = {kind: [moment_sum(n, x, kind).hex() for n, x in zip(ns, xs)] for kind in KINDS}
        monkeypatch.setattr(core, "_BASIS_BLOCK", bound)
        order = random.Random(bound).sample(range(len(ns)), len(ns))
        for kind in KINDS:
            sums = moment_sums([ns[i] for i in order], [xs[i] for i in order], kind)
            assert [sums[k].hex() for k in sorted(range(len(order)), key=order.__getitem__)] == alone[kind]

    def test_blocks_stay_within_the_bound(self, monkeypatch):
        areas = []
        block = core._basis_block

        def counted(*args):
            areas.append(args[3].size)  # m, of the block's shape
            return block(*args)

        monkeypatch.setattr(core, "_basis_block", counted)
        ns, xs = draws(8, 2000)
        moment_sums(ns, xs, "partition")
        assert len(areas) > 1
        assert max(areas) <= core._BASIS_BLOCK

    def test_quiet_at_the_edges(self):
        # Windows that reach below m = 0 or past m = n, next to wide ones;
        # at a subnormal x a reciprocal below m = 0 overflows.
        ns = [1, 2, 100000, 3, 60, 100000, 1, 1000, 1000, 1000, 7]
        xs = [0.5, 1e-300, 1e-5, 1.0 - 2**-53, 0.01, 0.99999, 1.0, 0.5, 5e-324, 1e-310, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in KINDS:
                sums = moment_sums(ns, xs, kind)
                assert [s.hex() for s in sums.tolist()] == [moment_sum(n, x, kind).hex() for n, x in zip(ns, xs)]

    def test_empty(self):
        assert moment_sums([], [], "first").shape == (0,)

    def test_bad_arguments_rejected_as_moment_sum_does(self):
        for ns, xs, kind, message in [
            ([3, 0], [0.5, 0.5], "first", "n must be >= 1, got 0"),
            ([3, 4], [0.5, 1.5], "first", "x must lie in [0, 1], got 1.5"),
            ([3, 4], [0.5, float("nan")], "first", "x must lie in [0, 1], got nan"),
            ([3], [0.5], "third", "unknown moment kind 'third'"),
            ([3], [0.5, 0.5], "first", "ns, xs and the kinds must be of one length"),
            ([3, 4], [0.5, 0.5], ["first"], "ns, xs and the kinds must be of one length"),
            ([3, 4], [0.5, 0.5], ["first", "third"], "unknown moment kind 'third'"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                moment_sums(ns, xs, kind)  # type: ignore[arg-type]
            assert str(excinfo.value) == message


class TestIntegerArguments:
    """Degrees, indices and counts must be integers; anything else raises TypeError."""

    NOT_AN_INTEGER = "cannot be interpreted as an integer|must have an integer dtype"
    NON_INTEGER_CALLS = [
        (moment_sum, (2.5, 0.5, "first")),  # once degree 2's 1.0
        (moment_sum, ("7", 0.5, "first")),  # once degree 7's 3.5
        (moment_sum, (2.0, 0.5, "first")),
        (moment_sums, ([3, 2.5], [0.5, 0.5], "first")),
        (moment_sums, (np.array([3.0, 4.0]), [0.5, 0.5], "partition")),
        (basis_eval, (3, 60.5, 0.5)),  # once 2.15e-14
        (basis_eval, (3, 40.5, 0.5)),
        (basis_eval, (20.5, 100, 0.2)),  # once 0.0976
        (basis_eval, (2.5, 60, 0.5)),  # once "tuple indices must be integers or slices, not float"
        (basis_eval, (2, 4.0, 0.5)),
        (basis_derivative, (20.5, 100, 0.2)),  # once 0.305
        (basis_derivative, (2, 4.0, 0.5)),
        (basis_all, (3.0, 0.5)),
        (binomial_convention, (4.0, 2)),
        (binomial_convention, (4, 2.0)),
    ]

    @pytest.mark.parametrize(
        "function,args", NON_INTEGER_CALLS, ids=[f"{f.__name__}{args}" for f, args in NON_INTEGER_CALLS]
    )
    def test_non_integers_raise_type_error(self, function, args):
        with pytest.raises(TypeError, match=self.NOT_AN_INTEGER):
            function(*args)

    def test_numpy_integers_are_integers(self):
        n, m = np.int64(60), np.intp(20)
        assert basis_eval(m, n, 0.3) == basis_eval(20, 60, 0.3)
        assert binomial_convention(n, m) == math.comb(60, 20)
        assert basis_all(n, 0.3).tolist() == basis_all(60, 0.3).tolist()
        assert moment_sum(n, 0.3, "first") == moment_sum(60, 0.3, "first")
        assert moment_sums(np.array([60, 7], dtype=np.int32), [0.3, 0.5], "first").tolist() == [
            moment_sum(60, 0.3, "first"),
            moment_sum(7, 0.5, "first"),
        ]

    @pytest.mark.parametrize(
        "function,args,message",
        [
            (binomial_convention, (-1, 0), "n must be >= 0, got -1"),
            (basis_eval, (0, -2, 0.5), "n must be >= 0, got -2"),
            (basis_all, (-1, 0.5), "n must be >= 0, got -1"),
            (basis_derivative, (0, 0, 0.5), "n must be >= 1, got 0"),
            (moment_sum, (0, 0.5, "partition"), "n must be >= 1, got 0"),
            (moment_sums, ([3, 0, -1], [0.5, 0.5, 0.5], "first"), "n must be >= 1, got 0"),
            (moment_sums, (np.array([5, -4]), [0.5, 0.5], "first"), "n must be >= 1, got -4"),
        ],
    )
    def test_range_messages_are_unchanged(self, function, args, message):
        with pytest.raises(ValueError) as excinfo:
            function(*args)
        assert str(excinfo.value) == message

    def test_draws_are_checked_before_any_is_walked(self, monkeypatch):
        # A bad draw past the first chunk raises before any block is built.
        walked, block = [], core._basis_block
        monkeypatch.setattr(core, "_basis_block", lambda *a: walked.append(a[3].size) or block(*a))
        ns = [3] * (core._MOMENT_CHUNK + 1) + [0]
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            moment_sums(ns, [0.5] * len(ns), "first")
        assert walked == []

    def test_draws_are_checked_once_per_call(self, monkeypatch):
        # The checks of a moment_sums call do not grow with its draws.
        calls = []
        check = core._check_count
        monkeypatch.setattr(core, "_check_count", lambda *args: calls.append(args) or check(*args))
        counts = []
        for k in (1, 500):
            rng = random.Random(k)
            ns = [rng.randint(1, 100000) for _ in range(k)]
            xs = [rng.choice((0.0, 1.0, rng.random())) for _ in range(k)]
            calls.clear()
            moment_sums(ns, xs, "second_central")
            counts.append(len(calls))
        assert counts[0] == counts[1]
