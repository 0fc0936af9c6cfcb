"""One low-noise end-to-end benchmark of the repro stack.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--trace [0|1]] [--out DIR]

prints every metric as ``workload/metric value unit``, checks every answer,
and ends with one JSON line per workload (the last line is the result the
driver reads).  See ``README.md`` in this directory for what is measured and
why; ``BENCHMARK.json`` at the repository root names the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import harness
import layers
import selftest
from harness import BENCH_DIR, REPO_ROOT, SOURCE_DIR

#: Default seed, and the seed later performance claims must also hold on
#: (never used while tuning this benchmark or a change measured by it).
DEFAULT_SEED = 2008
HELD_OUT_SEED = 7331

#: Rounds per untraced run; every round has a fixed operation count, and a
#: run's value of a metric is the median of its rounds' values.
ROUNDS = 7


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes feed dict/set iteration orders inside the engine; pin
        # them so that two runs of one seed execute the same instructions.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    if not (SOURCE_DIR / "repro").is_dir():
        print(f"error: no program to measure at {SOURCE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_DIR))
    from registry import WORKLOADS

    arguments = _parse(argv, list(WORKLOADS))
    if arguments.selftest:
        return selftest.run()
    if arguments.write_expected:
        return _write_expected(WORKLOADS)
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [arguments.workload] if arguments.workload else list(WORKLOADS)
    status = 0
    try:
        for name in names:
            result = run_workload(
                WORKLOADS[name](), arguments.seed, arguments.trace, contract, arguments.out,
            )
            if not result["correct"]:
                status = 1
            print(json.dumps(result))
    finally:
        leftover = harness.stop_all_children()
    if leftover:
        print(f"error: {leftover} child process(es) were left running", file=sys.stderr)
        return 1
    return status


def _parse(argv, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="one workload (default: all four, one after the other)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted because the driver passes it; a run is a fixed "
                             "count of rounds and operations, whatever its value")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the shorter traced run that yields the per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory the traced run writes trace-<workload>.jsonl to "
                             "(default: the spans stay in memory, no file is written)")
    parser.add_argument("--selftest", action="store_true",
                        help="check the reference kernel and the normalisation, then exit")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json for the default and held-out seeds")
    return parser.parse_args(argv)


def run_workload(workload, seed, trace, contract, out_dir) -> dict:
    problems = workload.self_check(seed)
    inputs = workload.generate(seed)
    workload.expected = workload.reference(inputs)
    problems += _check_committed(workload, seed)
    for problem in problems:
        print(f"FAILED check: {problem}", file=sys.stderr)
    failures = harness.FailureLog()
    if trace:
        declared = contract["per_layer"]
        trace_path = out_dir / f"trace-{workload.name}.jsonl" if out_dir else None
        with harness.reference_slices(workload) as timed_slice:
            values = layers.traced_run(workload, seed, failures, timed_slice, trace_path)
        values["bench.failed_frac"] = failures.failed / failures.attempted
    else:
        declared = contract["end_to_end"]
        with harness.reference_slices(workload) as timed_slice:
            rounds = [
                harness.run_round(workload, seed, failures, timed_slice)
                for _ in range(ROUNDS)
            ]
        per_round = [r.metrics() for r in rounds]
        values = {
            name: statistics.median(row[name] for row in per_round)
            for name in per_round[0]
        }
        values["failed_frac"] = failures.failed / failures.attempted
        print(f"# {workload.name}: {ROUNDS} rounds of {rounds[0].operations} ops, seed {seed}")
    units = {metric["name"]: metric["unit"] for metric in declared} | {"failed_frac": "ratio"}
    for name in sorted(values):
        print(f"{workload.name}/{name} {values[name]:.6g} {units.get(name, '')}".rstrip())
    # The result line carries every declared metric; a layer this workload
    # does not cross has nothing measured and reads 0 there.
    uncrossed = [metric["name"] for metric in declared if metric["name"] not in values]
    if uncrossed:
        print(f"# {workload.name} does not cross (0 in the result line): "
              + " ".join(uncrossed))
    return {
        "correct": not problems and failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {
            metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
            for metric in declared
        },
    }


def _check_committed(workload, seed) -> list[str]:
    """Compare the reference answers with ``expected.json`` where it has them."""
    committed = json.loads((BENCH_DIR / "expected.json").read_text())
    values = committed.get(workload.name, {}).get(str(seed))
    if values is None:
        return []
    expected = workload.expected
    if len(values) != len(expected) or any(
        abs(ours - theirs) > 1e-12 for ours, theirs in zip(expected, values)
    ):
        return [f"{workload.name}: reference answers differ from expected.json"]
    return []


def _write_expected(workloads) -> int:
    committed: dict = {}
    for name, factory in workloads.items():
        workload = factory()
        if not workload.commits_expected:
            continue
        committed[name] = {
            str(seed): workload.reference(workload.generate(seed))
            for seed in (DEFAULT_SEED, HELD_OUT_SEED)
        }
    # One line per (workload, seed) keeps regenerated files diffable.
    lines = [
        f'"{name}": {{\n'
        + ",\n".join(f'"{seed}": {json.dumps(values)}' for seed, values in seeds.items())
        + "\n}"
        for name, seeds in committed.items()
    ]
    (BENCH_DIR / "expected.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
