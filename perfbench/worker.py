"""Closed loop over one workload's argvs, in a process of its own.

Reads {"argvs", "warmup", "seconds", "trace", "spans_path"} as JSON on
stdin and writes one JSON object to stdout.  One client calls
bernprim.cli.main(argv) in-process, captures the report and stderr into
buffers, and times each call; the next call starts when the previous one
returns.  The loop replays whole passes over the argvs until another pass
would end after the deadline.  With trace on, each pass runs untraced and
then traced, so the tracing overhead is measured on the same argvs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import sys
import time


def run_once(cli, argv: list[str]) -> tuple[float, int | None, str | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaping exception is a measured failure of the run
            escaped = type(exc).__name__
        elapsed = time.perf_counter() - start
    return elapsed, code, escaped, out.getvalue(), err.getvalue()


class Loop:
    def __init__(self, cli, argvs: list[list[str]]):
        self.cli = cli
        self.argvs = argvs
        self.first: dict[int, list] = {}
        self.unstable: set[int] = set()

    def run_pass(self, ops: list, tracer=None) -> float:
        """One pass over the argvs; returns the summed report time."""
        total = 0.0
        for index, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.request = len(ops)
            elapsed, code, escaped, out, err = run_once(self.cli, argv)
            total += elapsed
            outcome = [code, escaped, out, err]
            seen = self.first.setdefault(index, outcome)
            if seen != outcome:
                self.unstable.add(index)
            ops.append([index, elapsed, code, escaped, len(out.encode())])
        return total


def _eval_abs_err(samples: list) -> float:
    """Largest |core.eval result - 30-digit Bernstein sum| over the sampled points."""
    import mpmath

    from reference import bernstein_sum

    worst = 0.0
    with mpmath.workdps(30):
        for poly, x, value in samples:
            exact = bernstein_sum([mpmath.mpf(c) for c in poly.coeffs], mpmath.mpf(x))
            worst = max(worst, float(abs(mpmath.mpf(value) - exact)))
    return worst


def main() -> None:
    job = json.load(sys.stdin)
    import numpy

    import bernprim.cli as cli

    loop = Loop(cli, job["argvs"])
    for argv in job["warmup"]:
        run_once(cli, argv)
    ops: list = []
    untraced_ops: list = []
    traced_s = untraced_s = 0.0
    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
    passes = 0
    start = time.perf_counter()
    deadline = start + job["seconds"]
    while True:
        pass_start = time.perf_counter()
        if tracer is not None:
            untraced_s += loop.run_pass(untraced_ops)
            restore = install(tracer)
            try:
                traced_s += loop.run_pass(ops, tracer)
            finally:
                restore()
        else:
            loop.run_pass(ops)
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            break
    loop_s = time.perf_counter() - start
    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "bernprim": cli.__file__,
        "passes": passes,
        "loop_s": loop_s,
        "ops": ops,
        "first": loop.first,
        "unstable": sorted(loop.unstable),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "edges": [[parent, name, count] for (parent, name), count in tracer.edges.items()],
            "stats": dict(tracer.stats),
            "peaks": tracer.peaks,
            "eval_abs_err_max": _eval_abs_err(tracer.samples),
        }
        with open(job["spans_path"], "w", encoding="utf-8") as handle:
            json.dump([dataclasses.astuple(span) for span in tracer.spans], handle)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
