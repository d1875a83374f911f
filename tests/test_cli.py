"""Command-line tool: exit codes, report schema, CSV carrier, seeding,
and byte-frozen golden outputs for every subcommand.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bernprim
import bernprim.cli as cli
import bernprim.core as core
from bernprim.cli import REPORT_SCHEMA, main
from cli_cases import GOLDEN_CASES, golden_path


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["approx", "--expr", "x", "--n", "3"])
        assert code == 0
        assert json.loads(out)["command"] == "approx"

    def test_parse_error_is_two(self, capsys):
        code, out, err = run_cli(capsys, ["approx", "--expr", "x^^2", "--n", "5"])
        assert code == 2
        assert out == ""
        assert err.startswith("parse error at byte 3:")

    def test_numeric_failure_is_three(self, capsys):
        code, _, err = run_cli(capsys, ["approx", "--expr", "log(x)", "--n", "5"])
        assert code == 3
        assert err.startswith("numeric failure:")

    def test_reported_fail_is_one(self, capsys):
        # A deliberately oversized step (delta = 1) voids the degree
        # bound's guarantee for the corner function: the chosen degree
        # lands near 51 where the measured error is about 0.056 > 0.04.
        code, out, _ = run_cli(
            capsys,
            ["bound", "--expr", "abs(x - 0.5)", "--eps", "0.04", "--delta", "1"],
        )
        assert code == 1
        report = json.loads(out)
        assert report["summary"]["passed"] is False
        assert report["summary"]["max_error"] > 0.04

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--expr", "x", "--eps", "0.1"],  # neither delta nor L
            ["bound", "--expr", "x", "--eps", "0.1", "--delta", "0.5", "--lipschitz", "1"],
            ["bound", "--expr", "x", "--eps", "-1", "--delta", "0.5"],
            ["bound", "--expr", "x", "--eps", "0.1", "--delta", "1.5"],
            ["approx", "--expr", "x", "--n", "0"],
            ["approx", "--expr", "x", "--n", "100001"],
            ["approx", "--expr", "x", "--n", "5", "--samples", "1"],
            ["converge", "--expr", "x", "--degrees", "10,5"],
            ["converge", "--expr", "x", "--degrees", "5,10", "--grid", "1"],
            ["converge", "--expr", "x", "--degrees", "5,10", "--panels", "7"],
            ["identities", "--grid", "2"],
            ["primitive", "--expr", "x", "--n", "3", "--fd-h", "0"],
            ["primitive", "--expr", "x", "--n", "3", "--fd-h", "nan"],
            ["primitive", "--expr", "x", "--n", "3", "--fd-h", "inf"],
            ["bound", "--expr", "x", "--eps", "nan", "--lipschitz", "1"],
            ["bound", "--expr", "x", "--eps", "inf", "--lipschitz", "1"],
            ["bound", "--expr", "x", "--eps", "0.1", "--lipschitz", "nan"],
            # Valid flags whose degree bound leaves float range.
            ["bound", "--expr", "x", "--eps", "1e-300", "--lipschitz", "1e300"],
            ["bound", "--expr", "x", "--eps", "1e-320", "--delta", "1"],
            ["bound", "--expr", "x", "--eps", "1e-300", "--delta", "1e-10"],
            ["bound", "--expr", "x", "--eps", "1e-200", "--delta", "1e-100"],
            ["bound", "--expr", "1.79e308", "--eps", "0.5", "--delta", "0.5", "--grid", "11"],
            # Point counts above MAX_DEGREE + 1, before any array is built.
            ["approx", "--expr", "x", "--n", "1", "--samples", "100002"],
            ["primitive", "--expr", "x", "--n", "1", "--samples", "100002"],
            ["converge", "--expr", "x", "--degrees", "1", "--grid", "100002"],
            ["bound", "--expr", "x", "--eps", "0.5", "--delta", "0.5", "--grid", "100002"],
            # Simpson panels above MAX_DEGREE, before any oracle row runs.
            ["primitive", "--expr", "x", "--n", "1", "--samples", "2", "--panels", "100002"],
            ["converge", "--expr", "x", "--degrees", "1", "--grid", "2", "--panels", "100002"],
            # An empty item in a degree list is a typo, not a skipped degree.
            ["converge", "--expr", "x", "--degrees", "4,,8"],
            ["converge", "--expr", "x", "--degrees", ",4"],
            ["converge", "--expr", "x", "--degrees", "4,8,"],
        ],
    )
    def test_usage_errors_are_two(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err != ""

    @pytest.mark.parametrize(
        "expr",
        [
            "(" * 3000 + "x" + ")" * 3000,
            "-" * 1000 + "x",
            "^".join(["x"] * 1000),
            "+".join(["x"] * 990),
        ],
        ids=["parentheses", "unary-minus", "power-chain", "flat-sum"],
    )
    def test_deep_expressions_are_parse_errors(self, capsys, expr):
        code, out, err = run_cli(capsys, ["approx", f"--expr={expr}", "--n", "4"])
        assert code == 2
        assert out == ""
        assert err.startswith("parse error at byte ")

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["primitive", "--expr", "1.7e308", "--n", "2", "--samples", "3"], "table[1][2]"),
            (["converge", "--expr", "1e308", "--degrees", "2,4", "--grid", "3", "--panels", "2"], "table[0][2]"),
        ],
    )
    def test_overflowing_prefix_sum_is_three(self, capsys, argv, field):
        # The antiderivative's prefix sums leave float range, but each of
        # its coefficients is finite; the Simpson oracle's weight 4 times f
        # overflows, and the report check names the field it reaches.
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == f"numeric failure: report field {field} is inf\n"

    def test_prefix_sums_beyond_float_range_give_finite_coefficients(self, capsys):
        # The prefix sums of 1001 samples 1e307 reach 1.001e310, yet each
        # coefficient of F_n = 1e307 x, a prefix sum over n + 1, is rounded once.
        argv = ["primitive", "--expr", "1e307", "--n", "1000", "--samples", "3", "--panels", "2"]
        coeffs = run_json(capsys, argv)["poly"]["coeffs"]
        assert coeffs == [float(Fraction(j) * Fraction(1e307) / 1001) for j in range(1002)]
        argv = ["converge", "--expr", "1e307", "--degrees", "1000", "--grid", "3", "--panels", "2"]
        [[_, error_fn, error_Fn]] = run_json(capsys, argv)["table"]
        assert error_fn == 0.0 and error_Fn <= 4 * math.ulp(1e307)

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "--expr", "1.7e308*sin(30*x)", "--degrees", "2,4", "--grid", "5", "--panels", "4"],
            ["primitive", "--expr", "1.7e308*sin(30*x)", "--n", "1", "--samples", "5", "--panels", "4"],
            ["converge", "--expr", "1e308*sin(30*x)", "--degrees", "2,4", "--grid", "5", "--panels", "4"],
            ["primitive", "--expr", "1e308*sin(30*x)", "--n", "1", "--samples", "5", "--panels", "4"],
        ],
    )
    def test_simpson_overflow_of_both_signs_is_three(self, capsys, argv):
        # Every sample of f is finite, but the oracle's weighted terms 4 * f
        # overflow to +inf and to -inf in one row, which have no sum.
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == "numeric failure: Simpson terms on [0, 0.25] overflow to -inf and +inf\n"

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["primitive", "--expr", "5e307", "--n", "1", "--samples", "2", "--panels", "2"], "table[1][2]"),
            (["converge", "--expr", "5e307", "--degrees", "2", "--grid", "3", "--panels", "2"], "table[0][2]"),
            (
                ["converge", "--expr", "1e308*sin(30*x)", "--degrees", "2,4", "--grid", "5", "--panels", "2"],
                "table[0][2]",
            ),
            (["approx", "--expr", "1.7e308*sin(30*x)", "--n", "3", "--samples", "41"], "table[2][3]"),
        ],
    )
    def test_non_finite_report_is_three(self, capsys, argv, field):
        # Every sample of f is finite, but the Simpson oracle's 4 * f, or
        # approx's f - f_n, overflows, so the report would carry an infinity.
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == f"numeric failure: report field {field} is inf\n"

    def test_argparse_failures_are_two(self, capsys):
        assert run_cli(capsys, ["no-such-command"])[0] == 2
        assert run_cli(capsys, ["approx", "--n", "5"])[0] == 2  # missing --expr
        assert run_cli(capsys, ["approx", "--expr", "x", "--n", "five"])[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "--expr", "-x^2", "--n", "2"],
            ["approx", "--n", "2", "--expr", "-x^2", "--emit", "csv"],
            ["primitive", "--expr", "-sin(x)", "--n", "4", "--samples", "3", "--panels", "4"],
            ["converge", "--expr", "-x", "--degrees", "2,4", "--grid", "5", "--panels", "2"],
            ["bound", "--expr", "-1 + x", "--eps", "0.5", "--delta", "0.5", "--grid", "11"],
            ["approx", "--expr", "-(", "--n", "2"],  # a parse error, reported as such
        ],
    )
    def test_expr_values_may_start_with_a_dash(self, capsys, argv):
        # argparse alone reads -x^2 as an unknown option; the report is
        # byte for byte the one of the --expr=-x^2 form.
        at = argv.index("--expr")
        joined = [*argv[:at], f"--expr={argv[at + 1]}", *argv[at + 2 :]]
        assert run_cli(capsys, argv) == run_cli(capsys, joined)
        assert run_cli(capsys, argv)[0] in (0, 2)

    @pytest.mark.parametrize("value", ["--n", "-h"])
    def test_options_after_expr_are_still_options(self, capsys, value):
        code, out, err = run_cli(capsys, ["approx", "--expr", value, "3"])
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --expr: expected one argument\n")

    def test_degree_cap_applies_to_bound(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["bound", "--expr", "exp(x)", "--eps", "1e-6", "--delta", "0.001"],
        )
        assert code == 2
        assert "exceeds" in err

    @pytest.mark.parametrize(
        "expr,eps,delta,degree",
        [
            ("exp(x)", "1e-3", "0.01", "109818586"),
            # Past 12 digits the exact degree (here 306 of them) is rounded.
            ("exp(x)", "1e-6", "0.001", "1.098e+13"),
            ("exp(x)^700", "0.5", "0.5", "3.278e+305"),
            # eps * delta^2 underflows.
            ("x", "1e-320", "1", "inf"),
        ],
    )
    def test_degree_over_the_cap_is_printed_compactly(self, capsys, expr, eps, delta, degree):
        argv = ["bound", "--expr", expr, "--eps", eps, "--delta", delta]
        assert run_cli(capsys, argv) == (
            2,
            "",
            f"usage error: required degree {degree} exceeds the supported maximum 100000\n",
        )

    @pytest.mark.parametrize("expr", ["0", "1e-320"])
    def test_tiny_function_keeps_a_small_degree_under_extreme_flags(self, capsys, expr):
        for step in (["--delta", "1"], ["--delta", "1e-10"]):
            argv = ["bound", "--expr", expr, "--eps", "1e-300", *step, "--grid", "11"]
            report = run_json(capsys, argv)
            assert report["summary"]["required_degree"] <= 5

    def test_subnormal_sup_keeps_its_small_degree(self, capsys):
        # 4 * 2^-1074 / (1e-200 * 1e-62 * 1e-62) is 19.76, so the degree is
        # 20; eps * delta^2 alone underflows to 0.
        argv = ["bound", "--expr", "5e-324", "--eps", "1e-200", "--delta", "1e-62", "--grid", "11"]
        assert run_json(capsys, argv)["summary"]["required_degree"] == 20


class TestHighDegree:
    """Degrees far above the goldens' run in seconds."""

    def test_bound_picks_and_passes_degree_8081(self, capsys):
        argv = ["bound", "--expr", "abs(x - 0.5)", "--eps", "0.1", "--lipschitz", "1"]
        summary = run_json(capsys, argv)["summary"]
        assert summary["required_degree"] == 8081
        assert summary["passed"] is True

    def test_converge_to_degree_100000_matches_closed_form(self, capsys):
        argv = ["converge", "--expr", "x^2", "--degrees", "1000,100000", "--grid", "1001", "--panels", "2"]
        report = run_json(capsys, argv)
        # For x^2, f_n - f = x(1-x)/n peaks at 1/(4n) at x = 1/2, and
        # F_n - F = (u^2/2 - u^3/3)/n at 1/(6n) at u = 1, where Simpson is
        # exact for the cubic F.
        for n, error_fn, error_primitive in report["table"]:
            assert error_fn == pytest.approx(1.0 / (4.0 * n), abs=1e-9)
            assert error_primitive == pytest.approx(1.0 / (6.0 * n), abs=1e-9)

    def test_constant_near_float_max_is_reproduced(self, capsys):
        # f_n reproduces a constant exactly, however large.
        argv = ["approx", "--expr", "5e307", "--n", "1000", "--samples", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_json(capsys, argv)
        assert [row[2] for row in report["table"]] == [5e307] * 3
        assert report["summary"]["max_error"] == 0.0

    def test_converge_columns_match_direct_evaluation(self, capsys):
        # sup_error_fn is poly_values's, bit for bit; sup_error_Fn, from
        # f_n's degree-n windows, is within 4 ulp of max|C| of the one
        # from F_n's own degree-(n+1) windows.
        argv = ["converge", "--expr", "sin(3*x)*exp(x)", "--degrees", "1,7,1000,8081", "--grid", "401", "--panels", "8"]
        report = run_json(capsys, argv)
        f = bernprim.to_real_function(bernprim.parse("sin(3*x)*exp(x)"))
        xs, oracle, fx = cli._tabulate(401, f, 8)
        for n, error_fn, error_primitive in report["table"]:
            fn = bernprim.bernstein_approximant(f, int(n))
            primitive = bernprim.antiderivative_poly(fn)
            assert error_fn == float(np.max(np.abs(bernprim.poly_values(fn, xs) - fx)))
            direct = float(np.max(np.abs(bernprim.poly_values(primitive, xs) - oracle)))
            assert abs(error_primitive - direct) <= 4 * 2.0**-52 * max(map(abs, primitive.coeffs))

    @pytest.mark.parametrize("command,column", [("approx", "f_n"), ("primitive", "F_n")])
    def test_sample_column_is_eval_poly_bit_for_bit(self, capsys, command, column):
        argv = [command, "--expr", "sin(3*x)*exp(x)", "--n", "1000", "--samples", "7"]
        report = run_json(capsys, argv)
        poly = bernprim.BernsteinPoly.from_dict(report["poly"])
        index = report["params"]["columns"].index(column)
        xs = [row[0] for row in report["table"]]
        assert [row[index] for row in report["table"]] == [bernprim.eval_poly(poly, x) for x in xs]


WORK_CASES = [
    # 257 probe + 101 grid + 34 samples at degree 33.
    (["bound", "--expr", "x", "--eps", "0.5", "--delta", "0.5", "--grid", "101"], 392),
    # 257 probe + 20 Simpson rows of 3 nodes + 21 grid + 5 + 9 samples.
    (["converge", "--expr", "x", "--degrees", "4,8", "--grid", "21", "--panels", "2"], 352),
]


class TestWork:
    """Each report calls f once per point of its grid, besides sampling and the oracle."""

    @pytest.mark.parametrize("argv,calls", WORK_CASES)
    def test_calls_of_f(self, capsys, monkeypatch, argv, calls):
        points = []
        real_function = cli.to_real_function

        def counted(tree):
            evaluator = real_function(tree).evaluator
            return bernprim.RealFunction(lambda x: points.append(x) or evaluator(x))

        monkeypatch.setattr(cli, "to_real_function", counted)
        run_json(capsys, argv)
        assert len(points) == calls

    @staticmethod
    def batch_sizes(capsys, monkeypatch, argv):
        """The size of each batch the report hands f's batch evaluator."""
        sizes = []
        real_function = cli.to_real_function

        def counted(tree):
            f = real_function(tree)
            return bernprim.RealFunction(f.evaluator, batch=lambda xs: sizes.append(xs.size) or f.batch(xs))

        monkeypatch.setattr(cli, "to_real_function", counted)
        run_json(capsys, argv)
        return sizes

    @pytest.mark.parametrize("argv,calls", WORK_CASES)
    def test_points_of_f_in_batches(self, capsys, monkeypatch, argv, calls):
        assert sum(self.batch_sizes(capsys, monkeypatch, argv)) == calls

    @pytest.mark.parametrize(
        "samples,panels,bound",
        [
            # A row of 100001 nodes is a block of its own.
            ("11", "100000", 100001),
            # Rows of 1001 nodes, 65 to a block of at most 2^16 nodes.
            ("201", "1000", 2**16),
        ],
    )
    def test_simpson_batches_stay_under_the_block_bound(self, capsys, monkeypatch, samples, panels, bound):
        argv = ["primitive", "--expr", "x", "--n", "4", "--samples", samples, "--panels", panels]
        sizes = self.batch_sizes(capsys, monkeypatch, argv)
        rows = int(samples) - 1  # the row at 0 hands f no node
        assert sum(sizes) == 257 + 5 + rows * (int(panels) + 1) + int(samples)
        assert max(sizes) <= bound

    def test_failing_row_calls_f_once(self, capsys, monkeypatch):
        # The row at 0.3 is a block of its own, and its batch fails at its
        # last node: batches of its stretches find that node, and f is
        # called there alone.
        points = []
        real_function = cli.to_real_function

        def counted(tree):
            f = real_function(tree)
            return bernprim.RealFunction(lambda x: points.append(x) or f.evaluator(x), batch=f.batch)

        monkeypatch.setattr(cli, "to_real_function", counted)
        argv = ["converge", "--expr", "1/(x - 0.3)", "--degrees", "4", "--grid", "11", "--panels", "100000"]
        code, _, err = run_cli(capsys, argv)
        assert code == 3 and err.startswith("numeric failure: evaluation of '1.0 / (x - 0.3)'")
        assert points == [0.3]

    def test_basis_blocks_stay_under_the_bound_at_the_grid_cap(self, capsys, monkeypatch):
        sizes = []
        block = core._basis_block

        def counted(*args):
            sizes.append(args[3].size)  # the block's padded weights
            return block(*args)

        monkeypatch.setattr(core, "_basis_block", counted)
        argv = ["identities", "--n-max", "100000", "--grid", "100001", "--seed", "3"]
        assert run_json(capsys, argv)["summary"]["passed"] is True
        assert sum(sizes) >= 3 * 100001  # every draw's row, padded
        assert max(sizes) <= core._BASIS_BLOCK


# Each fails in the construction probe.
PROBE_FAILURES = ["log(x)", "1/(x - 0.5)", "sqrt(x - 1)", "exp(800*x)", "1e400"]


class TestBatchFailures:
    """A failing batch calls f alone at its first failing point, so stderr is the scalar path's."""

    @staticmethod
    def scalar_only(tree):
        return bernprim.RealFunction(functools.partial(bernprim.expr._evaluate, tree))

    @staticmethod
    def simpson_loop(values, uppers, panels):
        """The oracle column as one simpson call per row, each f call one point."""
        return [bernprim.simpson(lambda t: float(values([t])[0]), u, panels) for u in uppers]

    @pytest.mark.parametrize(
        "argv",
        [["approx", "--expr", text, "--n", "4"] for text in PROBE_FAILURES]
        + [
            # 0.3 is no probe point: sampling, the oracle or the grid meets it.
            ["approx", "--expr", "1/(x-0.3)", "--n", "10"],
            ["approx", "--expr", "1/(x-0.3)", "--n", "7", "--samples", "11"],
            ["primitive", "--expr", "1/(x-0.3)", "--n", "7", "--samples", "11", "--panels", "4"],
            ["converge", "--expr", "log(abs(x-0.3))", "--degrees", "3,7", "--grid", "11", "--panels", "2"],
            ["converge", "--expr", "1/(x-0.6)", "--degrees", "3", "--grid", "11", "--panels", "64"],
            ["bound", "--expr", "1/(x-0.3)", "--eps", "0.5", "--delta", "0.5", "--grid", "11"],
            # The oracle overflows in its row at 0.2 before f fails at 0.3.
            ["converge", "--expr", "1e308*sin(30*x) + 1/(x-0.3)", "--degrees", "2", "--grid", "11", "--panels", "4"],
        ],
    )
    def test_stderr_is_the_scalar_paths(self, capsys, monkeypatch, argv):
        batched = run_cli(capsys, argv)
        monkeypatch.setattr(cli, "to_real_function", self.scalar_only)
        monkeypatch.setattr(cli, "simpson_rows", self.simpson_loop)
        scalar = run_cli(capsys, argv)
        assert batched == scalar
        assert batched[0] == 3 and batched[2].startswith("numeric failure: ")

    def test_frozen_probe_and_oracle_messages(self, capsys):
        code, _, err = run_cli(capsys, ["approx", "--expr", "exp(800*x)", "--n", "4"])
        assert code == 3
        assert err == (
            "numeric failure: construction probe failed at x=0.890625: "
            "evaluation of 'exp(800.0 * x)' failed at x=0.890625: math range error\n"
        )
        argv = ["primitive", "--expr", "1/(x-0.3)", "--n", "7", "--samples", "11", "--panels", "4"]
        code, _, err = run_cli(capsys, argv)
        assert code == 3
        assert err == "numeric failure: evaluation of '1.0 / (x - 0.3)' failed at x=0.3: division by zero\n"
        argv = ["converge", "--expr", "1e308*sin(30*x) + 1/(x-0.3)", "--degrees", "2", "--grid", "11", "--panels", "4"]
        code, _, err = run_cli(capsys, argv)
        assert code == 3
        assert err == "numeric failure: Simpson terms on [0, 0.2] overflow to -inf and +inf\n"

    def test_infinite_constants_are_quoted_as_1e309(self, capsys):
        code, _, err = run_cli(capsys, ["approx", "--expr", "min(x, 1e309)*x*1e309", "--n", "2"])
        assert code == 3
        assert err == (
            "numeric failure: construction probe failed at x=0.0: evaluation of "
            "'min(x, 1e309) * x * 1e309' failed at x=0.0: non-finite result nan\n"
        )


class TestReportSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "--expr", "x^2", "--n", "6", "--samples", "4"],
            ["primitive", "--expr", "x^2", "--n", "4", "--samples", "4", "--panels", "8"],
            ["identities", "--n-max", "20", "--grid", "11", "--seed", "1"],
            ["converge", "--expr", "x^2", "--degrees", "4,8", "--grid", "21", "--panels", "8"],
            ["bound", "--expr", "x", "--eps", "0.5", "--delta", "0.5", "--grid", "51"],
        ],
    )
    def test_all_subcommands_validate(self, capsys, argv):
        report = run_json(capsys, argv)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["command"] == argv[0]

    def test_approx_fields(self, capsys):
        report = run_json(capsys, ["approx", "--expr", "x^2", "--n", "10", "--samples", "5"])
        assert report["poly"]["degree"] == 10
        assert len(report["poly"]["coeffs"]) == 11
        assert len(report["table"]) == 5
        row = report["table"][2]
        assert row[0] == 0.5
        assert row[1] == pytest.approx(0.25, abs=1e-15)
        assert row[2] == pytest.approx(0.275, abs=1e-15)
        assert report["summary"]["max_error"] == pytest.approx(0.025, abs=1e-12)

    def test_primitive_fields(self, capsys):
        report = run_json(
            capsys,
            ["primitive", "--expr", "x^2", "--n", "10", "--samples", "5", "--panels", "64"],
        )
        assert report["poly"]["degree"] == 11
        assert report["poly"]["coeffs"][0] == 0.0
        # Antiderivative error law: sup |F_10 - x^3/3| = 1/60 at x = 1,
        # and the oracle is exact for squares.
        assert report["summary"]["max_error"] == pytest.approx(1.0 / 60.0, abs=1e-12)
        assert report["summary"]["derivative_check_max"] == pytest.approx(
            0.025, abs=1e-6
        )

    def test_identities_fields(self, capsys):
        report = run_json(capsys, ["identities", "--seed", "3", "--n-max", "30", "--grid", "11"])
        assert report["expr"] == ""
        assert report["poly"] == {"degree": 0, "coeffs": [0.0]}
        assert len(report["table"]) == 4
        assert report["params"]["identities"] == [
            "derivative_vs_fd",
            "partition",
            "first_moment",
            "second_central_moment",
        ]
        assert all(row[3] == 1.0 for row in report["table"])
        assert report["summary"]["passed"] is True

    # The residual column, by float.hex, frozen from the per-draw moment
    # sums that the batched ones replaced.
    @pytest.mark.parametrize(
        "seed,residuals",
        [
            (0, ["0x1.648c580000000p-30", "0x1.e000000000000p-49", "0x1.8ff3241b11e62p-50", "0x1.e1e1e1e1e1e1ep-52"]),
            (1, ["0x1.5d48800000000p-32", "0x1.8000000000000p-50", "0x1.be35119e2e028p-51", "0x1.63543c07fb246p-52"]),
            (2, ["0x1.7371100000000p-31", "0x1.4000000000000p-49", "0x1.5337d239138d7p-51", "0x1.3827e3f46a851p-52"]),
        ],
    )
    def test_identities_residuals_are_frozen(self, capsys, seed, residuals):
        argv = ["identities", "--n-max", "100000", "--grid", "101", "--seed", str(seed)]
        report = run_json(capsys, argv)
        assert [row[1].hex() for row in report["table"]] == residuals
        assert report["summary"]["max_error"].hex() == residuals[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_identities_pass_at_max_degree(self, capsys, seed):
        code, out, err = run_cli(
            capsys, ["identities", "--n-max", "100000", "--grid", "101", "--seed", str(seed)]
        )
        assert code == 0, out
        partition = json.loads(out)["table"][1]
        assert partition[1] < 1e-12

    def test_converge_fields(self, capsys):
        report = run_json(
            capsys,
            ["converge", "--expr", "x^2", "--degrees", "10,20,40,80", "--grid", "201", "--panels", "32"],
        )
        errors = [row[1] for row in report["table"]]
        assert errors == pytest.approx([0.025, 0.0125, 0.00625, 0.003125], abs=1e-9)
        assert report["summary"]["empirical_rates"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)

    def test_converge_kink_rate_is_half(self, capsys):
        report = run_json(
            capsys,
            ["converge", "--expr", "abs(x - 0.5)", "--degrees", "16,64,256", "--grid", "201", "--panels", "64"],
        )
        rates = report["summary"]["empirical_rates"]
        assert rates == pytest.approx([0.5, 0.5], abs=0.1)

    def test_bound_fields(self, capsys):
        report = run_json(
            capsys,
            ["bound", "--expr", "abs(x - 0.5)", "--eps", "0.5", "--lipschitz", "1", "--grid", "101"],
        )
        summary = report["summary"]
        assert summary["delta"] == 0.25
        assert summary["required_degree"] == 65
        assert summary["sup_norm_estimate"] == 0.5
        assert summary["passed"] is True
        assert summary["max_error"] < 0.5
        assert report["table"][0][:3] == [0.5, 0.25, 65.0]


class TestParamsFromFlags:
    """Every report's params are its subcommand's flags in declaration order, then its extras."""

    # Each argv gives its flags in the reverse of build_parser's order.
    ARGVS = {
        "approx": ["--samples", "3", "--n", "2", "--expr", "x", "--emit", "json"],
        "primitive": ["--fd-h", "0.01", "--panels", "4", "--samples", "3", "--n", "2", "--expr", "x"],
        "identities": ["--seed", "1", "--grid", "5", "--n-max", "3", "--emit", "json"],
        "converge": ["--panels", "2", "--grid", "3", "--degrees", "1,2", "--expr", "x"],
        "bound": ["--grid", "3", "--lipschitz", "1", "--eps", "0.5", "--expr", "x"],
    }
    EXTRAS = {"identities": ["draws_per_identity", "identities"], "bound": ["sup_safety"]}

    @staticmethod
    def flag_dests(command):
        (subparsers,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        actions = subparsers.choices[command]._actions
        return [a.dest for a in actions if a.dest not in ("help", "emit", "out", "expr")]

    @pytest.mark.parametrize("command", sorted(ARGVS))
    def test_params_keys_follow_the_parser(self, capsys, command):
        report = run_json(capsys, [command, *self.ARGVS[command]])
        expected = self.flag_dests(command) + self.EXTRAS.get(command, []) + ["columns"]
        assert list(report["params"]) == expected

    def test_bound_reports_the_flag_not_given_as_null(self, capsys):
        params = run_json(capsys, ["bound", *self.ARGVS["bound"]])["params"]
        assert (params["delta_flag"], params["lipschitz"]) == (None, 1.0)

    @pytest.mark.parametrize("command", sorted(ARGVS))
    def test_expr_is_parsed_and_probed_once(self, capsys, monkeypatch, command):
        calls = {"parse": 0, "to_real_function": 0}
        for name in calls:
            wrapped = getattr(cli, name)

            def counted(*args, name=name, wrapped=wrapped):
                calls[name] += 1
                return wrapped(*args)

            monkeypatch.setattr(cli, name, counted)
        run_json(capsys, [command, *self.ARGVS[command]])
        once = int(command in cli.EXPR_COMMANDS)
        assert calls == {"parse": once, "to_real_function": once}


class TestCsvCarrier:
    def test_csv_agrees_with_json(self, capsys):
        argv_tail = ["approx", "--expr", "x^2", "--n", "6", "--samples", "4"]
        report = run_json(capsys, argv_tail)
        code, out, _ = run_cli(capsys, argv_tail + ["--emit", "csv"])
        assert code == 0

        lines = out.splitlines()
        meta = {}
        body = []
        for line in lines:
            if line.startswith("# "):
                key, _, payload = line[2:].partition(": ")
                meta[key] = json.loads(payload)
            else:
                body.append(line)
        assert meta["command"] == report["command"]
        assert meta["expr"] == report["expr"]
        assert meta["params"] == report["params"]
        assert meta["poly"] == report["poly"]
        assert meta["summary"] == report["summary"]
        assert body[0].split(",") == report["params"]["columns"]
        parsed_rows = [[float(cell) for cell in line.split(",")] for line in body[1:]]
        assert parsed_rows == report["table"]

    def test_csv_floats_round_trip_exactly(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["converge", "--expr", "sqrt(x + 0.25)", "--degrees", "3,7", "--grid", "21",
             "--panels", "8", "--emit", "csv"],
        )
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
        for line in rows:
            for cell in line.split(","):
                # repr-emitted floats reparse to the identical double
                assert repr(float(cell)) == cell


class TestSeeding:
    IDENT = ["identities", "--n-max", "25", "--grid", "9"]

    def test_fixed_seed_is_reproducible(self, capsys):
        first = run_cli(capsys, self.IDENT + ["--seed", "7"])
        second = run_cli(capsys, self.IDENT + ["--seed", "7"])
        assert first == second

    def test_env_var_is_default_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("BERN_SEED", "7")
        from_env = run_cli(capsys, self.IDENT)
        from_flag = run_cli(capsys, self.IDENT + ["--seed", "7"])
        assert from_env == from_flag

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BERN_SEED", "3")
        from_flag = run_cli(capsys, self.IDENT + ["--seed", "7"])
        monkeypatch.delenv("BERN_SEED")
        reference = run_cli(capsys, self.IDENT + ["--seed", "7"])
        assert from_flag == reference

    def test_unset_env_means_seed_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("BERN_SEED", raising=False)
        bare = run_cli(capsys, self.IDENT)
        seeded = run_cli(capsys, self.IDENT + ["--seed", "0"])
        assert bare == seeded

    def test_seed_echoed_in_params(self, capsys, monkeypatch):
        monkeypatch.setenv("BERN_SEED", "11")
        report = run_json(capsys, self.IDENT)
        assert report["params"]["seed"] == 11

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BERN_SEED", "abc")
        code, out, err = run_cli(capsys, self.IDENT)
        assert code == 2
        assert out == ""
        assert "--seed" in err


class TestParserReuse:
    """main() builds its parser once per process; nothing of a run is kept."""

    IDENT = TestSeeding.IDENT

    def test_env_seed_is_read_at_each_run(self, capsys, monkeypatch):
        monkeypatch.setenv("BERN_SEED", "3")
        first = run_json(capsys, self.IDENT)
        monkeypatch.setenv("BERN_SEED", "11")
        second = run_json(capsys, self.IDENT)
        assert (first["params"]["seed"], second["params"]["seed"]) == (3, 11)

    def test_bad_env_seed_after_a_good_one_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BERN_SEED", "5")
        assert run_json(capsys, self.IDENT)["params"]["seed"] == 5
        monkeypatch.setenv("BERN_SEED", "5.5")
        code, out, err = run_cli(capsys, self.IDENT)
        assert code == 2
        assert out == ""
        assert "--seed" in err

    def test_parser_is_built_at_most_once(self, capsys, monkeypatch):
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        for argv in (["approx", "--expr", "x", "--n", "3"], self.IDENT, ["approx", "--n", "0"], self.IDENT):
            run_cli(capsys, argv)
        assert len(calls) <= 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestGoldens:
    @pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_byte_for_byte(self, capsys, name, argv):
        expected = golden_path(name).read_text(encoding="utf-8")
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert out == expected


def _report_of(argv: list[str]) -> dict:
    """The report main would emit for argv, built as main builds it."""
    args = cli._parser().parse_args(argv)
    functions = [cli.to_real_function(cli.parse(args.expr))] if args.command in cli.EXPR_COMMANDS else []
    return args.run(args, *functions)


_JSON_TEXT = st.text(st.characters(codec=None), max_size=6)  # control, non-ASCII, astral
_JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e22, 0.1, 1.7976931348623157e308]
)
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | _JSON_FLOATS | _JSON_TEXT
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(_JSON_FLOATS, max_size=5).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


class TestJson:
    """cli._json writes what json.dumps(indent=2, allow_nan=False) writes, byte for byte."""

    @pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_golden_reports(self, name, argv):
        report = _report_of(argv)
        assert cli._json(report) == json.dumps(report, indent=2, allow_nan=False)

    @given(value=_JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_value(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, allow_nan=False)

    @pytest.mark.parametrize("value", [[], {}, (), [[]], {"a": {}}, [1.0, [], 2], ["\x00\u00e9\U0001f600"]])
    def test_empty_containers_and_escapes(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, allow_nan=False)

    @pytest.mark.parametrize("value", [{"a": {1, 2}}, [1.0, {1}], np.float32(1.0)])
    def test_refuses_what_json_dumps_refuses(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, allow_nan=False)
        with pytest.raises(TypeError):
            cli._json(value)


class TestOutputFile:
    def test_out_writes_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            ["approx", "--expr", "x", "--n", "3", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text(encoding="utf-8"))
        assert report["command"] == "approx"

    def test_out_into_missing_directory_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(
            capsys,
            ["approx", "--expr", "x", "--n", "3", "--out", str(target)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")
        assert not target.exists()

    def test_deterministic_across_runs(self, capsys):
        argv = ["converge", "--expr", "exp(x)", "--degrees", "3,6,12", "--grid", "31", "--panels", "16"]
        assert run_cli(capsys, argv) == run_cli(capsys, argv)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(bernprim.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "bernprim", "identities", "--n-max", "5", "--grid", "3"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["command"] == "identities"


# Argv fuzzing.  Each flag has argv fragments that argparse accepts and
# fragments it must reject; an argv takes at most one rejected fragment, so
# that most draws run a subcommand.  100001 is drawn only for degree flags,
# where it exceeds MAX_DEGREE; as a sample or grid count it is valid and
# slow.  --grid (converge, bound) and --panels (converge) are never
# omitted, because their defaults cost up to a second per run.
_BAD = ["nan", "inf", "-1", "0", "abc"]
_DEEP = [
    "(" * 3000 + "x" + ")" * 3000,
    "-" * 1000 + "x",
    "^".join(["x"] * 1000),
    "+".join(["x"] * 990),
]
_UNDEFINED = ["log(x)", "1/(x - 0.5)"]  # not finite somewhere on [0, 1]: exit 3
_HUGE = "1.7e308"  # finite, and so is F_n, but the Simpson oracle's 4 * f overflows: exit 3
_LARGE = "5e307"  # finite, but the Simpson oracle's 4 * f overflows: exit 3
_WAVE = "1.7e308*sin(30*x)"  # finite, but 4 * f overflows to both signs in one row: exit 3
_EXPRS = ["x^2", "abs(x - 0.5)", "sin(3*x)", "1e-320", _HUGE, _LARGE, _WAVE, *_UNDEFINED]


def _flag(flag, good, bad=_BAD, omitted="good"):
    """(accepted, rejected) argv fragments; omitted names the list that gets []."""
    fragments = {"good": [[f"{flag}={v}"] for v in good], "bad": [[f"{flag}={v}"] for v in bad]}
    if omitted:
        fragments[omitted].append([])
    return fragments["good"], fragments["bad"]


_EXPR = _flag("--expr", _EXPRS, ["x^^2", "", *_DEEP], omitted="bad")
# The order of a pool decides which of its values the derandomized draws
# pair with which others; with 1000 first, approx and primitive both run to
# a report at that degree.
_DEGREE = _flag("--n", ["1000", "1", "8", "65"], ["100001", *_BAD], omitted="bad")
_SAMPLES = _flag("--samples", ["2", "5", "11"], ["100002", *_BAD])
_PANELS = _flag("--panels", ["2", "8", "64"], ["7", "100002", *_BAD], omitted=None)
_GRID = _flag("--grid", ["2", "21", "101"], ["1", "100002", *_BAD], omitted=None)
_EMIT = _flag("--emit", ["json", "csv"], ["xml"])
_STEP = (
    [["--delta=0.5"], ["--delta=1"], ["--delta=1e-10"], ["--delta=1e-100"], ["--lipschitz=1"],
     ["--lipschitz=1e300"]],
    [[], ["--delta=0.5", "--lipschitz=1"], ["--delta=1.5"], ["--delta=nan"], ["--lipschitz=0"],
     ["--lipschitz=nan"], ["--lipschitz=inf"]],
)
_FLAGS = {
    "approx": [_EXPR, _DEGREE, _SAMPLES, _EMIT],
    "primitive": [_EXPR, _DEGREE, _SAMPLES, _PANELS, _flag("--fd-h", ["1e-5", "0.25", "2"]), _EMIT],
    "identities": [
        _flag("--n-max", ["1", "8", "65"], ["100001", *_BAD]),
        _flag("--grid", ["3", "11", "101"], ["2", *_BAD]),
        _flag("--seed", ["0", "7", "-3"], ["abc", "1.5"]),
        _EMIT,
    ],
    "converge": [
        _EXPR,
        _flag("--degrees", ["4,8", "1,65", "8", "100,2000"], ["8,4", ",", "4,100001", *_BAD], omitted="bad"),
        _GRID,
        _PANELS,
        _EMIT,
    ],
    "bound": [
        _EXPR,
        _flag("--eps", ["0.04", "0.5", "100001", "1e-200", "1e-300", "1e-320"]),
        _STEP,
        _GRID,
        _EMIT,
    ],
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    rejected = None
    if draw(st.integers(0, 3)) == 0:  # one argv in four takes a rejected fragment
        rejected = draw(st.sampled_from(range(len(flags))))
    argv = [command]
    for index, (good, bad) in enumerate(flags):
        argv += draw(st.sampled_from(bad if index == rejected else good))
    return argv


def _summary(out: str, argv: list[str]) -> dict:
    if "--emit=csv" not in argv:
        return json.loads(out)["summary"]
    line = next(line for line in out.splitlines() if line.startswith("# summary: "))
    return json.loads(line[len("# summary: "):])


class TestArgvFuzz:
    @given(argv=_argvs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_every_argv_gets_a_report_or_an_exit_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 3:
            assert any(arg in (f"--expr={e}" for e in (*_UNDEFINED, _HUGE, _LARGE, _WAVE)) for arg in argv), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code in (0, 1):
            assert _summary(out.getvalue(), argv)["passed"] is (code == 0)
        else:
            assert out.getvalue() == ""
