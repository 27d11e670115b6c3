"""Steadiness mode: run one workload several times and report each metric's spread.

Runs ``run.py`` once per seed, one run after another, and prints for every
metric its median, first and third quartile (``statistics.quantiles(values,
n=4)``) and the interquartile range as a share of the median, beside the
metric's bound from ``BENCHMARK.json``.  Run from the root of a checkout::

    python3 e2ebench/steadiness.py --workload dse-chain --runs 10 --save a.json
    python3 e2ebench/steadiness.py --workload dse-chain --runs 10 --first-seed 11 \\
        --against a.json

``--save`` keeps the per-run results; ``--against`` compares this set's
medians with a saved set, as a share of the saved median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    arguments = parser.parse_args()
    if arguments.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    runs: List[Dict[str, Any]] = []
    for seed in range(arguments.first_seed, arguments.first_seed + arguments.runs):
        command = [sys.executable, str(HERE / "run.py"), "--workload", arguments.workload,
                   "--seed", str(seed), "--seconds", str(arguments.seconds),
                   "--trace", str(arguments.trace)]
        start = time.perf_counter()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   timeout=600)
        elapsed = time.perf_counter() - start
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}, "
              f"{elapsed:.1f} s; {completed.stdout.splitlines()[0]}", flush=True)
        runs.append(result)
    if arguments.save is not None:
        arguments.save.write_text(json.dumps(runs), encoding="utf-8")

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    baseline: Dict[str, float] = {}
    if arguments.against is not None:
        saved = json.loads(arguments.against.read_text(encoding="utf-8"))
        for name in saved[0]["metrics"]:
            baseline[name] = statistics.median(r["metrics"][name]["value"] for r in saved)

    print(f"{arguments.workload}: {len(runs)} runs of {arguments.seconds} s, "
          f"trace {arguments.trace}")
    header = f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
    if baseline:
        header += f" {'vs saved':>9}"
    print(header)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        stats = spread(values)
        bound = bounds.get(name)
        line = (f"{name:<36} {stats['median']:>12.6g} {stats['q1']:>12.6g} "
                f"{stats['q3']:>12.6g} {stats['spread']:>7.1%} "
                f"{'' if bound is None else f'{bound:.0%}':>6}")
        if baseline.get(name):
            line += f" {stats['median'] / baseline[name] - 1:>+9.1%}"
        print(line)
    failed = sum(r["failed"] for r in runs)
    print(f"all runs correct: {all(r['correct'] for r in runs)} ({failed} failed checks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
