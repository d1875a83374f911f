"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
from fractions import Fraction

import mpmath
import pytest

import reference
import tracer
import workloads
from bernprim.cli import main


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_argvs_are_a_function_of_the_seed(workload):
    assert workload in workloads.REPORT_TIME
    first = [case.argv for case in workloads.build(workload, 11)]
    assert first == [case.argv for case in workloads.build(workload, 11)]
    assert first != [case.argv for case in workloads.build(workload, 12)]


def test_cli_small_keeps_the_goldens_and_a_tenth_of_rejected_argvs():
    cases = workloads.build("cli-small", 5)
    assert {case.golden for case in cases if case.golden} == {name for name, _ in workloads.GOLDEN_CASES}
    rejected = [case for case in cases if not case.valid]
    assert 0.08 <= len(rejected) / len(cases) <= 0.12
    assert any("nan" in case.argv for case in rejected)


def test_install_wraps_and_restore_puts_back_the_originals():
    def current():
        return [getattr(importlib.import_module(m), a) for m, a, *_ in tracer.PATCHES]

    before = current()
    restore = tracer.install(tracer.Tracer())
    try:
        assert all(now is not then for now, then in zip(current(), before))
    finally:
        restore()
    assert all(now is then for now, then in zip(current(), before))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 3.0

    def point():  # aggregated: no span, but still a child of mid
        clock.now += 0.5

    leaf = t.wrap("leaf", leaf, True, None)
    point = t.wrap("point", point, False, None)

    def mid():
        clock.now += 1.0
        leaf()
        point()
        point()

    mid = t.wrap("mid", mid, True, None)

    def root():
        clock.now += 2.0
        mid()
        leaf()
        clock.now += 1.0

    t.wrap("root", root, True, None)()

    assert t.total_s == {"leaf": 6.0, "point": 1.0, "mid": 5.0, "root": 11.0}
    assert t.self_s == {"leaf": 6.0, "point": 1.0, "mid": 1.0, "root": 3.0}
    assert t.calls == {"leaf": 2, "point": 2, "mid": 1, "root": 1}
    assert t.edges[("mid", "point")] == 2
    by_name = {}
    for span in t.spans:
        by_name.setdefault(span.name, []).append(span)
    root_id = by_name["root"][0].id
    assert by_name["root"][0].parent is None and by_name["root"][0].self_s == 3.0
    assert by_name["mid"][0].parent == root_id
    assert [span.parent for span in by_name["leaf"]] == [by_name["mid"][0].id, root_id]
    assert "point" not in by_name
    assert len({span.id for span in t.spans}) == len(t.spans)


def test_a_raising_call_still_closes_its_frame():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom, True, None)()
    assert t.self_s["boom"] == 1.0 and not t._stack


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_reference_accepts_a_report_and_rejects_a_perturbed_one():
    f = workloads.wave(__import__("random").Random(0))
    case = workloads.Case(("approx", "--expr", f.text, "--n", "12", "--samples", "5"), expr=f)
    code, out, err = _run(case.argv)
    assert reference.check(case, code, out, err) < 1e-12
    bad = out.replace(out.split('"max_error": ')[1].split("\n")[0].rstrip(","), "0.5", 1)
    with pytest.raises(reference.Mismatch):
        reference.check(case, code, bad, err)


def test_kink_error_matches_a_direct_sum():
    n, c = 12, Fraction(1, 4)
    with mpmath.workdps(40):
        direct = sum(
            abs(mpmath.mpf(m) / n - mpmath.mpf(1) / 4) * mpmath.binomial(n, m) * mpmath.mpf(0.25) ** m * mpmath.mpf(0.75) ** (n - m)
            for m in range(n + 1)
        )
        assert abs(reference._q(reference.kink_error(n, c)) - direct) < mpmath.mpf(10) ** -35


def test_stderr_classes():
    assert reference.stderr_class(_run(("approx", "--expr", "x^^2", "--n", "3"))[2]) == "parse"
    assert reference.stderr_class(_run(("approx", "--expr", "log(x)", "--n", "3"))[2]) == "numeric"
    assert reference.stderr_class(_run(("approx", "--expr", "x", "--n", "0"))[2]) == "usage"
    assert reference.stderr_class(_run(("approx", "--expr", "x", "--n", "3", "--emit", "xml"))[2]) == "usage"
