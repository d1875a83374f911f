"""Benchmark of the bernprim CLI: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports bernprim from
./src and reads the goldens in ./tests/goldens.  The argvs come from the
seed (workloads.py).  A fresh interpreter is timed importing the CLI, then
a child process runs the closed loop (worker.py) so its peak RSS is the
workload's own.  Every distinct argv's output is checked (reference.py)
outside the timed region.  The last line of stdout is the result:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json with --trace 0 and the
per_layer ones with --trace 1.  The lines above it print every metric,
including those that only some workloads can report, and the
environment; the full result also goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

SETUP_SPAWNS = 7
P90_MIN_REPORTS = 100  # so that at least ten samples lie beyond the p90
SETUP_CODE = "import bernprim.cli as cli; cli.build_parser()"
HERE = Path(__file__).resolve().parent


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # One BLAS thread: the loop has one client, and a BLAS pool as wide as
    # the host (np.dot on long basis rows) measures the scheduler instead.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def measure_setup(root: Path) -> list[float]:
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=_child_env(root), capture_output=True)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            _fail(f"importing bernprim.cli failed:\n{done.stderr.decode()}")
    return times


def run_worker(root: Path, cases: list, seconds: int, trace: bool, spans_path: Path) -> dict:
    job = {
        "argvs": [list(case.argv) for case in cases],
        "warmup": [list(argv) for argv in workloads.warmup()],
        "seconds": seconds,
        "trace": trace,
        "spans_path": str(spans_path),
    }
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=root,
            env=_child_env(root),
            timeout=150,
        )
    except subprocess.TimeoutExpired:
        _fail("the workload did not finish within 150 s")
    if done.returncode != 0:
        _fail(f"the workload process failed:\n{done.stderr}")
    result = json.loads(done.stdout)
    if not Path(result["bernprim"]).resolve().is_relative_to(root / "src"):
        _fail(f"imported bernprim from {result['bernprim']}, not from {root / 'src'}")
    return result


def check_cases(root: Path, cases: list, result: dict) -> dict:
    """Classify each distinct argv's first run; the loop reran each identically or flagged it."""
    failing: dict[int, str] = {}  # argv index -> why its runs fail
    wrong: set[int] = set()  # argvs whose report content is wrong
    errors = []
    for index, case in enumerate(cases):
        code, escaped, out, err = result["first"][str(index)]
        if escaped:
            failing[index] = f"{escaped} escaped main"
        elif code not in case.expect:
            failing[index] = f"exit {code}, expected {case.expect}: {err[:160]!r}"
        elif not case.valid:
            if out or reference.stderr_class(err) not in case.stderr:
                failing[index] = f"stderr class {reference.stderr_class(err)!r}, expected {case.stderr}"
        else:
            golden = (root / "tests" / "goldens" / f"{case.golden}.golden").read_text() if case.golden else None
            try:
                error = reference.check(case, code, out, err, golden)
            except (reference.Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
                failing[index] = f"wrong report: {exc}"
                wrong.add(index)
            else:
                if error is not None:
                    errors.append(error)
        if index in result["unstable"]:
            failing[index] = "output changed between repeats of the same argv"
            wrong.add(index)
    return {"failing": failing, "wrong": wrong, "result_err_max": max(errors) if errors else None}


def failed_ops(result: dict, checked: dict) -> list:
    # A repeat that differs from an argv's first run marks the argv failing.
    return [op for op in result["ops"] if op[0] in checked["failing"]]


def _reports(cases: list, ops: list) -> list:
    """Operations that produced a report: valid argvs that returned 0 or 1."""
    return [op for op in ops if cases[op[0]].valid and op[2] in (0, 1)]


def outcomes(cases: list, result: dict, checked: dict) -> dict:
    ops = result["ops"]
    reports = _reports(cases, ops)
    metrics = {
        "fail_frac": (len(failed_ops(result, checked)) / len(ops), "ratio"),
        "verify_fail_frac": (sum(op[2] == 1 for op in reports) / len(reports) if reports else 0.0, "ratio"),
    }
    if checked["result_err_max"] is not None:
        metrics["result_err_max"] = (checked["result_err_max"], "abs")
    return metrics


def end_to_end(workload: str, cases: list, result: dict, setup: list[float]) -> dict:
    ops = result["ops"]
    times = [op[1] for op in ops]
    # Every pass replays the same argvs, so each argv has one report time,
    # taken from its calls as workloads.REPORT_TIME says.
    per_argv = collections.defaultdict(list)
    for op in ops:
        per_argv[op[0]].append(op[1])
    report_time = {index: workloads.REPORT_TIME[workload](calls) for index, calls in per_argv.items()}
    valid = sum(case.valid for case in cases)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "report_p50_s": (statistics.median(report_time.values()), "s"),
        "reports_per_s": (valid / sum(report_time.values()), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "loop_reports_per_s": (len(_reports(cases, ops)) / result["loop_s"], "1/s"),
    }
    if len(ops) >= P90_MIN_REPORTS:
        metrics["report_p90_s"] = (statistics.quantiles(times, n=10, method="inclusive")[8], "s")
    return metrics


def per_layer(result: dict) -> dict:
    trace = result["trace"]
    per = 1.0 / result["passes"]  # counts and times are per pass over the argvs
    calls, self_s, total_s = trace["calls"], trace["self_s"], trace["total_s"]
    stats, peaks = trace["stats"], trace["peaks"]
    edges = {(parent, name): count for parent, name, count in trace["edges"]}
    ops = result["ops"]
    evals_in_simpson = edges.get(("quadrature.simpson", "expr.eval"), 0)
    eval_calls = calls.get("expr.eval", 0)
    metrics = {
        "cli.main.calls": (calls.get("cli.main", 0) * per, "count"),
        "cli.self_s": (self_s.get("cli.main", 0.0) * per, "s"),
        "cli.report_bytes": (sum(op[4] for op in ops) * per, "B"),
    }
    for code in (0, 1, 2, 3):
        metrics[f"cli.exit.{code}"] = (sum(op[2] == code for op in ops) * per, "count")
    metrics["cli.escaped"] = (sum(bool(op[3]) for op in ops) * per, "count")
    for layer in ("expr.parse", "quadrature.simpson"):
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) * per, "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) * per, "s")
    metrics["expr.to_real_function.s"] = (total_s.get("expr.to_real_function", 0.0) * per, "s")
    metrics["expr.eval.calls"] = (eval_calls * per, "count")
    metrics["expr.eval.self_s"] = (self_s.get("expr.eval", 0.0) * per, "s")
    metrics["expr.eval.us_per_call"] = (1e6 * self_s.get("expr.eval", 0.0) / eval_calls if eval_calls else 0.0, "us")
    metrics["quadrature.simpson.integrand_evals"] = (evals_in_simpson * per, "count")
    useful = stats.get("quadrature.simpson.useful_evals", 0)
    metrics["quadrature.simpson.useful_frac"] = (useful / evals_in_simpson if evals_in_simpson else 0.0, "ratio")
    metrics["quadrature.central_difference.calls"] = (calls.get("quadrature.central_difference", 0) * per, "count")
    metrics["core.sample.points"] = (stats.get("core.sample.points", 0) * per, "count")
    metrics["core.sample.self_s"] = (self_s.get("core.sample", 0.0) * per, "s")
    for key in ("calls", "points", "ops"):
        source = calls.get("core.eval", 0) if key == "calls" else stats.get(f"core.eval.{key}", 0)
        metrics[f"core.eval.{key}"] = (source * per, "count")
    metrics["core.eval.self_s"] = (self_s.get("core.eval", 0.0) * per, "s")
    metrics["core.eval.bytes_peak"] = (peaks.get("core.eval.bytes_peak", 0), "B")
    metrics["core.eval.abs_err_max"] = (trace["eval_abs_err_max"], "abs")
    metrics["core.sup_norm.calls"] = (calls.get("core.sup_norm", 0) * per, "count")
    metrics["core.sup_norm.self_s"] = (self_s.get("core.sup_norm", 0.0) * per, "s")
    metrics["core.basis.calls"] = (calls.get("core.basis", 0) * per, "count")
    metrics["core.basis.weights"] = (stats.get("core.basis.weights", 0) * per, "count")
    metrics["core.basis.self_s"] = (self_s.get("core.basis", 0.0) * per, "s")
    metrics["core.basis.partition_err_max"] = (peaks.get("core.basis.partition_err_max", 0.0), "abs")
    metrics["trace.report_s"] = (trace["traced_s"] * per, "s")
    metrics["trace.overhead_frac"] = ((trace["traced_s"] - trace["untraced_s"]) / trace["untraced_s"], "ratio")
    return metrics


def environment(root: Path, args: argparse.Namespace, result: dict, attempted: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "bernprim").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = done.stdout.strip() if done.returncode == 0 else None
    except OSError:  # no git, as in an exported tree
        commit = None
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": result["python"],
        "numpy": result["numpy"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": result["passes"],
        "argvs_per_pass": len(result["first"]),
        "reports_per_run": attempted,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    for needed in ("src/bernprim/cli.py", "tests/goldens", "BENCHMARK.json"):
        if not (root / needed).exists():
            _fail(f"run from the root of a bernprim checkout: {needed} is missing under {root}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    cases = workloads.build(args.workload, args.seed)
    setup = [] if args.trace else measure_setup(root)
    result = run_worker(root, cases, args.seconds, bool(args.trace), out_dir / f"spans_{stem}.json")
    checked = check_cases(root, cases, result)
    metrics = per_layer(result) if args.trace else end_to_end(args.workload, cases, result, setup)
    metrics.update(outcomes(cases, result, checked))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if metrics.get(m["name"], (None, None))[1] != m["unit"]]
    if missing:
        _fail(f"no value in the unit BENCHMARK.json gives for {missing}")

    ops = result["ops"]
    env = environment(root, args, result, len(ops))
    for index, why in sorted(checked["failing"].items()):
        print(f"# fail: {' '.join(cases[index].argv)[:100]} -> {why}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:17s} {name:38s} {value:<24.10g} {unit}")
    if args.trace:
        report_s = metrics["trace.report_s"][0]
        for layer in (
            "cli", "expr.parse", "expr.eval", "quadrature.simpson", "core.sample", "core.eval", "core.sup_norm", "core.basis"
        ):
            share = metrics[f"{layer}.self_s"][0] / report_s if report_s else 0.0
            print(f"{args.workload:17s} share.{layer:32s} {share:<24.4f} of traced report time")
    print("# env: " + json.dumps(env))

    line = {
        "correct": not checked["wrong"],
        "attempted": len(ops),
        "failed": len(failed_ops(result, checked)),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed},
    }
    record = {
        "env": env,
        "result": line,
        "all_metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "setup_samples_s": setup,
        "failures": {" ".join(cases[i].argv)[:200]: why for i, why in checked["failing"].items()},
    }
    (out_dir / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
