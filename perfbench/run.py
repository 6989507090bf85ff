#!/usr/bin/env python3
"""Benchmark harness for the hybrid analog-digital solver.

Run one workload (the form BENCHMARK.json's command takes)::

    python3 perfbench/run.py --workload hybrid_burgers --seed 1 --seconds 50 --trace 0

or every workload, one subprocess each, exiting non-zero when any
correctness check fails::

    python3 perfbench/run.py --all --seed 1 --seconds 50

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs the workload for half the seconds untraced, then runs as many
units again with the span wrappers of ``layers.TARGETS`` installed, and
prints the per-layer metrics plus the tracing overhead. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("hybrid_burgers", "service_closed_loop")
SETUPS = 3
"""Set-ups per run; ``setup_s`` is the median import time plus the
median set-up time, each over this many repetitions."""
TAIL_LADDER = (50.0, 60.0, 70.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_fraction", "ratio"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("newton_iters_mean", "count"),
    ("seed_error_rms", "ratio"),
)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it
    (the median when there are too few samples for any)."""
    eligible = [p for p in TAIL_LADDER if count * (1.0 - p / 100.0) >= TAIL_BEYOND]
    return max(eligible, default=TAIL_LADDER[0])


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def best_latencies(units):
    """Per input, the lowest latency of the units run on it: on a shared
    host a unit run again is only ever slowed down by other tenants, so
    the best of several runs is the program's own cost."""
    best = {}
    for unit in units:
        if unit.latency is not None:
            best[unit.key] = min(unit.latency, best.get(unit.key, math.inf))
    return list(best.values())


def _summary(result):
    attempted = len(result.units)
    failed = sum(1 for unit in result.units if not unit.ok)
    wrong = sum(1 for unit in result.units if unit.wrong)
    return attempted, failed, wrong


def end_to_end(result, import_s: float):
    attempted, failed, wrong = _summary(result)
    # 0 when every unit was refused: the run then reports ``correct: false``.
    best = best_latencies(result.units) or [0.0]
    tail = tail_percentile(len(best))
    runs = sum(1 for unit in result.units if unit.latency is not None)
    ok = sum(1 for unit in result.units if unit.ok)
    good = sum(1 for unit in result.units
               if unit.ok and unit.latency is not None and unit.latency <= result.limit_s)
    values = {
        "setup_s": import_s + statistics.median(result.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_fraction": (attempted - failed) / attempted,
        "latency_p50_s": percentile(best, 50.0),
        "latency_tail_s": percentile(best, tail),
    }
    values.update(result.metrics)
    notes = [
        f"failed_fraction = {failed / attempted:.6g} ({failed} of {attempted} {result.unit}s "
        f"failed, {wrong} of them wrong answers)",
        f"latency_p50_s and latency_tail_s (p{tail:g}) are over {len(best)} inputs, each the "
        f"best of its runs ({runs} {result.unit}s timed in all)",
        f"throughput_per_s = {ok / result.work_wall:.6g} correct {result.unit}s per second, "
        f"goodput_per_s = {good / result.work_wall:.6g} within {result.limit_s:g} s "
        f"(not gated: {result.work_wall:.3f} s of closed-loop wall)",
        f"set-up times: {', '.join(f'{t:.3f}' for t in result.setup_times)} s "
        f"+ {import_s:.3f} s imports (median of {SETUPS} fresh interpreters)",
    ] + result.info
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, notes


def per_layer(untraced, traced, recorder, traced_wall: float):
    from layers import PER_LAYER
    from tracing import aggregate

    totals = aggregate(recorder)
    self_sum = sum(entry["self_s"] for entry in totals.values())
    overhead = traced.work_wall - untraced.work_wall
    trace_values = {
        "trace.spans": sum(entry["calls"] for entry in totals.values()),
        "trace.self_s_sum": self_sum,
        "trace.traced_wall_s": traced.work_wall,
        "trace.untraced_wall_s": untraced.work_wall,
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / untraced.work_wall,
        "trace.coverage": self_sum / traced_wall,
    }
    metrics = {}
    for name, unit, _better, compute in PER_LAYER:
        value = trace_values[name] if compute is None else compute(totals)
        metrics[name] = {"value": value, "unit": unit}
    notes = [
        f"tracing overhead: {overhead:+.4f} s on {untraced.work_wall:.4f} s of untraced work "
        f"({100.0 * overhead / untraced.work_wall:+.2f}%)",
        f"self times sum to {self_sum:.4f} s over {traced_wall:.4f} s of traced wall "
        f"(coverage {self_sum / traced_wall:.4f})",
    ]
    return metrics, notes


@contextmanager
def _timed(inner, into: dict):
    t0 = time.perf_counter()
    with inner():
        yield
    into["wall"] = time.perf_counter() - t0


def import_seconds() -> float:
    """Median wall of importing the harness and the program in fresh
    interpreters (this process has already imported them once)."""
    code = (
        "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; t0 = time.perf_counter(); "
        "import workloads, tracing; print(time.perf_counter() - t0)"
    ).format(src=str(SRC), here=str(HERE))
    times = []
    for _ in range(SETUPS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_one(args) -> int:
    import repro
    import workloads
    from tracing import SpanRecorder, installed, leftover_wrappers

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: repro imported from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        if not args.trace:
            result = run(args.seed, args.seconds, nullcontext, SETUPS, workdir)
            metrics, notes = end_to_end(result, import_seconds())
            runs = [result]
        else:
            half = args.seconds / 2.0
            untraced = run(args.seed, half, nullcontext, 1, workdir / "untraced")
            recorder = SpanRecorder()
            wall: dict = {}
            traced = run(args.seed, half, lambda: _timed(lambda: installed(recorder), wall),
                         1, workdir / "traced", recorder, limit=untraced.count)
            left = leftover_wrappers()
            if left:
                print(f"error: wrappers left installed: {left}", file=sys.stderr)
                return 2
            metrics, notes = per_layer(untraced, traced, recorder, wall["wall"])
            runs = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    attempted = sum(_summary(result)[0] for result in runs)
    failed = sum(_summary(result)[1] for result in runs)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    for note in notes:
        print(f"  # {note}")
    # Any unit that failed, was refused or gave a wrong answer fails the run.
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        try:
            correct = bool(json.loads(lines[-1])["correct"])
        except (IndexError, ValueError, KeyError):
            correct = False
        if completed.returncode != 0 or not correct:
            print(f"FAILED: {name} (exit {completed.returncode})")
            status = 1
    return status


def pin_to_one_cpu() -> None:
    """Run the measured process, its threads and its child interpreters
    on one CPU, with single-threaded BLAS. On a host with a few shared
    cores, hand-offs between threads (the service's event loop and its
    shard thread) otherwise wait on whichever other CPU the hypervisor
    has descheduled, which measures the host, not the program."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.all:
        return run_all(args)
    pin_to_one_cpu()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
