"""Acceptance gate: the eight headline guarantees, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Each test computes its own verdict and prints it
before asserting, so a red run still reports every measured number.

Two constants carry their derivations here so nobody "fixes" them:

* Degree bound, eps = 0.25 case: with sup-norm 1/2 and delta = eps/2 =
  1/8 the quotient 4*(1/2)/(1/4 * 1/64) is exactly 512, so the smallest
  strictly-greater integer is 513.  (Sup-norm 1 would give 1025; that
  arithmetic is pinned alongside, to keep the distinction visible.)
* "4 ulp" for the derivative-recovers-samples check is measured at the
  scale of the prefix sums the coefficients are built from, max((n+1) *
  max|coeff|, |sample|): the samples pass through a division by n+1 and
  back, so agreement in ulps of the bare sample is not achievable in
  fixed double precision for generic data — the observed worst case at
  prefix scale is ~1.6 ulp with a provable ceiling under 4.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from bernprim import (
    basis_derivative,
    basis_eval,
    bernstein_approximant,
    central_difference,
    derivative_poly,
    difference_quotient,
    eval_poly,
    lipschitz_delta,
    moment_sum,
    parse,
    poly_values,
    primitive_approximant,
    required_degree,
    simpson,
    sup_norm_distance,
    to_text,
)
from bernprim.cli import main
from cli_cases import GOLDEN_CASES, golden_path
from corpus import BY_NAME, CAUCHY_THREE, CORPUS, ORACLE_FIVE
from test_expr import ROUNDTRIP_CORPUS

GRID_101 = [i / 100 for i in range(101)]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    worst = {"partition": 0.0, "first": 0.0, "second": 0.0}
    ok = True
    for n in range(1, 501):
        for x in GRID_101:
            partition = abs(moment_sum(n, x, "partition") - 1.0)
            first = abs(moment_sum(n, x, "first") - n * x)
            second = abs(moment_sum(n, x, "second_central") - n * x * (1.0 - x))
            worst["partition"] = max(worst["partition"], partition)
            worst["first"] = max(worst["first"], first)
            worst["second"] = max(worst["second"], second)
            ok = ok and partition < 1e-12 and first < 1e-9 * n and second < 1e-8 * n

    worst_deriv = 0.0
    for n in range(1, 51):
        for m in range(n + 1):
            for x in GRID_101[1:-1]:
                fd = central_difference(lambda t: basis_eval(m, n, t), x, 1e-6)
                worst_deriv = max(worst_deriv, abs(basis_derivative(m, n, x) - fd))
    ok = ok and worst_deriv < 1e-5

    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report(
        "identity-suite",
        ok,
        f"partition {worst['partition']:.2e}, first {worst['first']:.2e}, "
        f"second {worst['second']:.2e}, derivative {worst_deriv:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_derivative_recovers_samples():
    worst_ulps = 0.0
    zeros_exact = True
    for entry in CORPUS:
        for n in (5, 50, 200):
            primitive = primitive_approximant(entry.fn, n)
            recovered = derivative_poly(primitive)
            scale = (n + 1) * max(abs(c) for c in primitive.coeffs)
            for m in range(n + 1):
                sample = entry.fn(m / n)
                unit = float(np.spacing(max(scale, abs(sample))))
                worst_ulps = max(worst_ulps, abs(recovered.coeffs[m] - sample) / unit)
            zeros_exact = zeros_exact and eval_poly(primitive, 0.0) == 0.0
    ok = worst_ulps <= 4.0 and zeros_exact
    _report(
        "derivative-recovers-samples",
        ok,
        f"worst {worst_ulps:.3f} ulp at prefix scale over {len(CORPUS)}x3 cases; "
        f"all start at exact zero: {zeros_exact}",
    )


def test_criterion_3_exact_error_laws():
    square = BY_NAME["square"].fn
    cube_third = lambda x: x**3 / 3.0  # noqa: E731
    worst_fn = worst_Fn = worst_fn_alt = worst_Fn_alt = 0.0
    grid = np.arange(1001) / 1000.0
    for n in (10, 100, 1000):
        approx = bernstein_approximant(square, n)
        primitive = primitive_approximant(square, n)
        worst_fn = max(
            worst_fn,
            abs(sup_norm_distance(approx, square, 1001).value - 1.0 / (4 * n)),
        )
        worst_Fn = max(
            worst_Fn,
            abs(sup_norm_distance(primitive, cube_third, 1001).value - 1.0 / (6 * n)),
        )
        # Independent confirmations: term-by-term basis summation instead
        # of the convex-combination evaluator, and the parabolic-rule
        # oracle (exact for squares) instead of the closed form.  Both
        # subgrids contain the maximizers (0.5 and 1.0 respectively).
        sample_xs = grid[::50]
        direct = np.array(
            [
                float(np.dot(approx.coeffs, [basis_eval(m, n, float(x)) for m in range(n + 1)]))
                for x in sample_xs
            ]
        )
        law_direct = float(np.abs(direct - sample_xs**2).max())
        worst_fn_alt = max(worst_fn_alt, abs(law_direct - 1.0 / (4 * n)))
        oracle = np.array([simpson(square, float(x), 256) for x in sample_xs])
        values = poly_values(primitive, sample_xs)
        law_oracle = float(np.abs(values - oracle).max())
        worst_Fn_alt = max(worst_Fn_alt, abs(law_oracle - 1.0 / (6 * n)))
    ok = worst_fn < 1e-9 and worst_Fn < 1e-9 and worst_fn_alt < 1e-10 and worst_Fn_alt < 1e-10
    _report(
        "exact-error-laws",
        ok,
        f"|sup-1/(4n)| {worst_fn:.2e}, |sup-1/(6n)| {worst_Fn:.2e}, "
        f"independent routes {worst_fn_alt:.2e}/{worst_Fn_alt:.2e}",
    )


def test_criterion_4_cauchy_bound():
    degrees = (5, 10, 20, 40, 80)
    worst_gap = -1.0
    ok = True
    for name in CAUCHY_THREE:
        fn = BY_NAME[name].fn
        approxes = {n: bernstein_approximant(fn, n) for n in degrees}
        primitives = {n: primitive_approximant(fn, n) for n in degrees}
        for i, m in enumerate(degrees):
            for n in degrees[i + 1 :]:
                lhs = sup_norm_distance(primitives[m], primitives[n], 1001).value
                rhs = sup_norm_distance(approxes[m], approxes[n], 1001).value
                ok = ok and lhs <= rhs + 1e-10
                worst_gap = max(worst_gap, lhs - rhs)
    _report(
        "cauchy-bound",
        ok,
        f"max(lhs - rhs) = {worst_gap:.2e} over 10 pairs x {len(CAUCHY_THREE)} functions",
    )


def test_criterion_5_difference_quotient():
    fn = BY_NAME["sine"].fn
    approx = bernstein_approximant(fn, 40)
    primitive = primitive_approximant(fn, 40)
    worst_value = worst_reconstruction = 0.0
    for c in (0.1, 0.5, 0.9):
        quotient = difference_quotient(primitive, c)
        worst_value = max(
            worst_value, abs(eval_poly(quotient, c) - eval_poly(approx, c))
        )
        f_c = eval_poly(primitive, c)
        for x in GRID_101:
            rebuilt = (x - c) * eval_poly(quotient, x) + f_c
            worst_reconstruction = max(
                worst_reconstruction, abs(rebuilt - eval_poly(primitive, x))
            )
    ok = worst_value < 1e-9 and worst_reconstruction < 1e-10
    _report(
        "difference-quotient",
        ok,
        f"|Q(c) - f_n(c)| {worst_value:.2e}, reconstruction {worst_reconstruction:.2e}",
    )


def test_criterion_6_degree_bound():
    started = time.perf_counter()
    fn = BY_NAME["kink"].fn
    expected = {0.5: 65, 0.25: 513}
    ok = True
    details = []
    for eps, expected_n in expected.items():
        delta = lipschitz_delta(1.0, eps)
        ok = ok and delta == eps / 2.0
        n = required_degree(0.5, eps, delta)
        measured = sup_norm_distance(bernstein_approximant(fn, n), fn, 1001).value
        ok = ok and n == expected_n and measured < eps
        details.append(f"eps={eps}: n={n}, sup={measured:.4f}")
    # Provenance of the advertised 1025: it is the sup-norm-1 arithmetic.
    ok = ok and required_degree(1.0, 0.25, 0.125) == 1025
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    _report(
        "degree-bound",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s (513 documented in place of 1025)",
    )


def test_criterion_7_oracle_cross_check():
    ok = True
    details = []
    for name in ORACLE_FIVE:
        fn = BY_NAME[name].fn
        primitive = primitive_approximant(fn, 200)
        approx = bernstein_approximant(fn, 200)
        lhs = max(
            abs(eval_poly(primitive, x) - simpson(fn, x, 256)) for x in GRID_101
        )
        rhs = sup_norm_distance(approx, fn, 101).value + 1e-6
        ok = ok and lhs <= rhs
        details.append(f"{name} {lhs:.2e}<={rhs:.2e}")
    _report("oracle-cross-check", ok, ", ".join(details))


def test_criterion_8_parser_and_cli():
    round_trips = 0
    ok = True
    for text in ROUNDTRIP_CORPUS:
        tree = parse(text)
        ok = ok and parse(to_text(tree)) == tree
        round_trips += 1
    ok = ok and round_trips >= 50

    golden_ok = True
    for name, argv in GOLDEN_CASES:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv)
        golden_ok = (
            golden_ok
            and code == 0
            and buffer.getvalue() == golden_path(name).read_text(encoding="utf-8")
        )
    ok = ok and golden_ok

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code_ok = main(["identities", "--n-max", "10", "--grid", "5", "--seed", "1"])
        code_parse = main(["approx", "--expr", "x^^2", "--n", "5"])
        code_numeric = main(["approx", "--expr", "log(x)", "--n", "5"])
    codes = (code_ok, code_parse, code_numeric)
    ok = ok and codes == (0, 2, 3)
    _report(
        "parser-and-cli",
        ok,
        f"{round_trips} round-trips, goldens byte-match: {golden_ok}, "
        f"exit codes {codes}",
    )
