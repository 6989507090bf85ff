#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload hybrid_burgers --seeds 10 --first 801

runs ``run.py`` for ``run_seconds`` of BENCHMARK.json once per seed
(seeds ``--first``, ``--first + 1``, ...) and prints a markdown table
with, per metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), their distance as a share of
the median, and the metric's bound from BENCHMARK.json. Exits 1 when
a run fails, or when a spread other than ``setup_s``'s reaches its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first", type=int, default=1)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    metrics = config["end_to_end"]
    values = {metric["name"]: [] for metric in metrics}
    walls = []
    status = 0
    all_correct = True
    last = args.first + args.seeds - 1
    for seed in range(args.first, last + 1):
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        walls.append(time.perf_counter() - t0)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {done.returncode}, correct {result['correct']}")
            status, all_correct = 1, False
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"### {args.workload} (seeds {args.first}-{last}, {args.seeds} runs, "
          f"all correct: {all_correct})\n")
    print("| metric | median | q1 | q3 | IQR / median | bound | bound / 3 |")
    print("|---|---|---|---|---|---|---|")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        series = values[name]
        q1, median, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median
        if name != "setup_s" and share >= bound:
            status = 1
        print(f"| `{name}` ({metric['unit']}) | {median:.4g} | {q1:.4g} | {q3:.4g} | "
              f"{share:.3f} | {bound:g} | {bound / 3.0:.3f} |")
    print(f"\nEach run took {min(walls):.1f}-{max(walls):.1f} s of wall, set-up included.")
    return status


if __name__ == "__main__":
    sys.exit(main())
