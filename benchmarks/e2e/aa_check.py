"""A/A check: does the same code agree with itself within the bounds?

    python3 benchmarks/e2e/aa_check.py [--runs 3] [--seed N]

Runs the whole benchmark in two sets of ``--runs`` (alternating A, B, A, …),
prints for every ``workload/metric`` each set's median and their relative
gap, and proposes ``bound = max(0.05, 1.5 x worst (max - min) / median)``
rounded up to 0.01.  Exits non-zero if a gap exceeds the metric's bound in
``BENCHMARK.json`` or a bound exceeds 0.10.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
MAX_BOUND = 0.10


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per set (default 3)")
    parser.add_argument("--seed", type=int, default=None)
    arguments = parser.parse_args(argv)

    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    workloads = [workload["name"] for workload in contract["workloads"]]
    sets: tuple[dict, dict] = ({}, {})
    for run in range(2 * arguments.runs):
        for workload in workloads:
            command = [*contract["command"], "--workload", workload, "--trace", "0"]
            if arguments.seed is not None:
                command += ["--seed", str(arguments.seed)]
            completed = subprocess.run(
                command, cwd=REPO_ROOT, capture_output=True, text=True, check=True
            )
            result = json.loads(completed.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload}: run reported failures: {result}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                sets[run % 2].setdefault((workload, name), []).append(metric["value"])

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={_numpy_version()} runs/set={arguments.runs}")
    print(f"{'workload/metric':<32}{'median A':>12}{'median B':>12}{'gap':>8}"
          f"{'spread':>8}{'bound':>7}{'proposed':>9}")
    status = 0
    for key in sets[0]:
        workload, name = key
        first, second = sets[0][key], sets[1][key]
        medians = statistics.median(first), statistics.median(second)
        gap = abs(medians[1] - medians[0]) / medians[0]
        spread = max(
            (max(values) - min(values)) / statistics.median(values)
            for values in (first, second)
        )
        proposed = max(0.05, math.ceil(1.5 * spread * 100) / 100)
        bound = bounds[name]
        flag = ""
        if gap > bound or bound > MAX_BOUND:
            status, flag = 1, "  <-- FAIL"
        print(f"{workload + '/' + name:<32}{medians[0]:>12.4f}{medians[1]:>12.4f}"
              f"{gap:>8.3f}{spread:>8.3f}{bound:>7.2f}{proposed:>9.2f}{flag}")
    return status


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
