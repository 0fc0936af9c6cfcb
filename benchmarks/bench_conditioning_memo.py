"""Conditioning-subproblem memo: sibling branches and a constraint assert.

The memo lives for one conditioning run.  Two measurements, each run
memo-on against the ``ExactConfig(condition_memoize=False)`` ablation:

1. **Sibling branches**: a fan-out variable ``w`` paired with a fixed hard
   (Figure 11a-style) residual condition, so every ⊕-branch of ``w`` leaves
   the *identical* subproblem — the cross-branch hits of the Davis-Putnam
   recursion itself.  Both runs disable ``prune_unrelated``: with pruning
   on, the heuristic only eliminates tuple-sharing variables and hands
   unrelated residuals to the (already memoised) confidence engine, so the
   pure cross-branch effect would be masked by an older cache.

2. **Constraint assert**: the paper's motivating use case, an integrity
   constraint compiled to a condition ws-set (Section 3.2) and asserted —
   ``FunctionalDependency("R", ["VALUE"], ["ID"])`` on
   ``random_attribute_level_database(Random(11), num_entities=24,
   num_values=96, max_alternatives=3)``.

The enforced gate is deterministic, so it holds on any machine:

* every memoised result is **bit-identical** to the unmemoised one — same
  confidence, same rewritten descriptors, same new-variable weights, and
  for the assert the same ``ConditioningSummary`` (new variables, dropped
  variables, rewritten-tuple count).  A hit shares its subtree's new
  variables; rule 3 folds the copies the unmemoised run allocates into the
  same ones;
* the sibling run records at least ``fanout - 1`` memo hits;
* with the memo on, the constraint assert eliminates fewer variables than
  with it off.

Times are the median of ``RUNS`` runs per side and are recorded, not gated:
a timing floor would be too noisy to enforce.

Run directly to print the table and record ``BENCH_conditioning_memo.json``::

    PYTHONPATH=src python benchmarks/bench_conditioning_memo.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from pathlib import Path
from random import Random

from repro.core.conditioning import condition_wsset
from repro.core.probability import ExactConfig
from repro.core.wsset import WSSet
from repro.db.constraints import FunctionalDependency
from repro.db.world_table import WorldTable
from repro.workloads.hard import HardCaseParameters, generate_hard_instance
from repro.workloads.random_instances import random_attribute_level_database

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_NAME = "BENCH_conditioning_memo.json"

MEMO_ON = ExactConfig()
MEMO_OFF = ExactConfig(condition_memoize=False)

#: Timed runs per side; each reported time is their median.
RUNS = 3

ALTERNATIVES = 2
SIBLING_FANOUT = 6
SIBLING_TUPLES = 8

FD_SEED = 11
FD_ENTITIES = 24
FD_VALUES = 96
FD_ALTERNATIVES = 3


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def signature(result):
    """Everything observable about a conditioning result, for exact ``==``."""
    delta = result.delta_world_table
    return (
        result.confidence,
        {tag: list(descs) for tag, descs in result.rewritten.items()},
        {variable: delta.distribution(variable) for variable in delta.variables},
        dict(result.variable_sources),
    )


def timed_runs(run, runs: int):
    """``(median seconds, last result)`` of ``runs`` calls of ``run``."""
    seconds = []
    for _ in range(runs):
        started = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def build_sibling_workload(
    fanout: int, num_descriptors: int, num_variables: int, descriptor_length: int
):
    """A fan-out variable whose branches all leave the identical residual.

    Each descriptor pairs one alternative of ``w`` with one member of a
    fixed hard residual set that never mentions ``w``: whichever branch the
    recursion takes, the remaining subproblem is the same.
    """
    instance = generate_hard_instance(
        HardCaseParameters(
            num_variables=num_variables,
            alternatives=ALTERNATIVES,
            descriptor_length=descriptor_length,
            num_descriptors=num_descriptors + SIBLING_TUPLES,
            seed=1,
        )
    )
    world_table = WorldTable()
    world_table.add_variable("w", {j: 1.0 / fanout for j in range(fanout)})
    for variable in instance.world_table.variables:
        world_table.add_variable(
            variable, instance.world_table.distribution(variable)
        )
    descriptors = list(instance.ws_set)
    residual = descriptors[:num_descriptors]
    condition = WSSet(
        [{"w": j, **dict(part.items())} for j in range(fanout) for part in residual]
    )
    tagged = [
        (f"t{index}", descriptor)
        for index, descriptor in enumerate(descriptors[num_descriptors:])
    ]
    return world_table, condition, tagged


def measure_sibling_branches(
    fanout: int,
    num_descriptors: int,
    num_variables: int,
    descriptor_length: int,
    runs: int,
) -> dict:
    world_table, condition, tuples = build_sibling_workload(
        fanout, num_descriptors, num_variables, descriptor_length
    )

    def run(config):
        return lambda: condition_wsset(
            condition, tuples, world_table, config, prune_unrelated=False
        )

    off_seconds, baseline = timed_runs(run(MEMO_OFF), runs)
    on_seconds, memoised = timed_runs(run(MEMO_ON), runs)

    assert signature(memoised) == signature(baseline), "sibling run diverged"
    hits = memoised.stats.memo_hits
    assert hits >= fanout - 1, f"expected >= {fanout - 1} sibling hits, saw {hits}"
    return {
        "fanout": fanout,
        "residual_descriptors": num_descriptors,
        "num_variables": num_variables,
        "descriptor_length": descriptor_length,
        "prune_unrelated": False,
        "runs": runs,
        "memo_off_seconds": round(off_seconds, 4),
        "memo_on_seconds": round(on_seconds, 4),
        "speedup": round(off_seconds / on_seconds, 2),
        "memo": {"hits": hits, "misses": memoised.stats.memo_misses},
        "bit_identical": True,
    }


def measure_constraint_assert(entities: int, values: int, runs: int) -> dict:
    database = random_attribute_level_database(
        Random(FD_SEED),
        num_entities=entities,
        num_values=values,
        max_alternatives=FD_ALTERNATIVES,
    )
    constraint = FunctionalDependency("R", ["VALUE"], ["ID"])

    def run(config):
        return lambda: database.conditioned(constraint, config)[1]

    off_seconds, off = timed_runs(run(MEMO_OFF), runs)
    on_seconds, on = timed_runs(run(MEMO_ON), runs)

    def summary_key(summary):
        return (
            summary.confidence,
            summary.new_variables,
            summary.dropped_variables,
            summary.rewritten_tuples,
            signature(summary.result),
        )

    assert summary_key(on) == summary_key(off), "constraint assert diverged"
    eliminated_on = len(on.result.stats.eliminated_variables)
    eliminated_off = len(off.result.stats.eliminated_variables)
    assert eliminated_on < eliminated_off, (
        f"the memo saved no elimination: {eliminated_on} on, {eliminated_off} off"
    )
    return {
        "constraint": "FunctionalDependency('R', ['VALUE'], ['ID'])",
        "database": {
            "seed": FD_SEED,
            "num_entities": entities,
            "num_values": values,
            "max_alternatives": FD_ALTERNATIVES,
        },
        "runs": runs,
        "memo_off_seconds": round(off_seconds, 4),
        "memo_on_seconds": round(on_seconds, 4),
        "speedup": round(off_seconds / on_seconds, 2),
        "confidence": on.confidence.hex(),
        "new_variables": len(on.new_variables),
        "dropped_variables": len(on.dropped_variables),
        "rewritten_tuples": on.rewritten_tuples,
        "eliminated_variables": {"memo_on": eliminated_on, "memo_off": eliminated_off},
        "memo": {
            "hits": on.result.stats.memo_hits,
            "misses": on.result.stats.memo_misses,
        },
        "bit_identical": True,
    }


def main(argv: list[str] | None = None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads for CI smoke (the deterministic gate still holds)",
    )
    parser.add_argument("--out", type=Path, default=REPO_ROOT / REPORT_NAME)
    arguments = parser.parse_args(argv)

    quick = arguments.quick
    sibling_descriptors = 12 if quick else 20
    sibling_variables = 10 if quick else 12
    sibling_length = 3 if quick else 4
    fd_entities = 12 if quick else FD_ENTITIES
    fd_values = 48 if quick else FD_VALUES

    print(
        f"1) sibling branches: fanout {SIBLING_FANOUT} over "
        f"{sibling_descriptors} residual descriptors, median of {RUNS} runs"
    )
    sibling = measure_sibling_branches(
        SIBLING_FANOUT, sibling_descriptors, sibling_variables, sibling_length, RUNS
    )
    print(
        f"   off {sibling['memo_off_seconds']:.3f}s  on "
        f"{sibling['memo_on_seconds']:.3f}s  -> {sibling['speedup']}x "
        f"({sibling['memo']['hits']} hits, bit-identical)"
    )

    print(
        f"2) constraint assert: FD VALUE -> ID over {fd_entities} entities, "
        f"median of {RUNS} runs"
    )
    constraint = measure_constraint_assert(fd_entities, fd_values, RUNS)
    eliminated = constraint["eliminated_variables"]
    print(
        f"   off {constraint['memo_off_seconds']:.3f}s  on "
        f"{constraint['memo_on_seconds']:.3f}s  -> {constraint['speedup']}x "
        f"({eliminated['memo_on']} eliminations against "
        f"{eliminated['memo_off']}, bit-identical)"
    )

    payload = {
        "title": "Per-run conditioning memo vs the unmemoised recursion",
        "quick": quick,
        "machine": {"usable_cpus": usable_cpus()},
        "gate": {
            "enforced": True,
            "checks": [
                "memoised results bit-identical to unmemoised ones",
                "sibling hits >= fanout - 1",
                "the constraint assert eliminates fewer variables memoised",
            ],
            "note": "deterministic; the recorded times are medians, not gated",
        },
        "sibling_branches": sibling,
        "constraint_assert": constraint,
    }
    arguments.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {arguments.out}")
    return arguments.out


if __name__ == "__main__":
    main()
