"""Session batching: one shared engine/memo vs per-call cold engines.

Measures the per-tuple ``conf()`` aggregate over a relation whose value
tuples share lineage, built from the Figure 11a workload (#P-hard instances,
n=16, r=2, s=4): every tuple's ws-set is the union of one *shared* Figure 11a
ws-set (common lineage — think of a common subquery contributing to every
answer tuple) and a small tuple-private descriptor set over its own
variables.  Two strategies compute all tuple confidences:

* ``cold-per-tuple``   — the historical API: one fresh engine per tuple
                         (``probability`` with a fresh ``ExactConfig``), so
                         the shared component is re-solved for every tuple;
* ``session-batch``    — ``Session.confidence_batch``: one engine and memo
                         for the whole batch, so the shared component is
                         solved once and every further tuple answers it from
                         the component cache.

Run directly to print the table and record ``BENCH_session_batching.json``
(including per-size and overall cold/session speedups and the session's memo
statistics) at the repo root::

    PYTHONPATH=src python benchmarks/bench_session_batching.py

It reuses the timing and reporting helpers of ``benchmarks/paper``.
"""

from __future__ import annotations

import random
from pathlib import Path

from paper.reporting import format_sweep_result, write_sweep_json
from paper.runner import MeasuredPoint, Series, SweepResult, measure
from repro.core.probability import ExactConfig, probability
from repro.core.wsset import WSSet
from repro.db.session import Session
from repro.db.urelation import URelation
from repro.workloads.hard import HardCaseParameters, generate_hard_instance

SIZES = (32, 64, 128, 256)
TUPLES = 12
PRIVATE_VARIABLES = 8
PRIVATE_DESCRIPTORS = 6
REPEATS = 3
REPORT_NAME = "BENCH_session_batching.json"


def _parameters(size: int) -> HardCaseParameters:
    return HardCaseParameters(
        num_variables=16, alternatives=2, descriptor_length=4,
        num_descriptors=size, seed=0,
    )


def build_workload(size: int):
    """``(world_table, relation)``: TUPLES value tuples sharing one Figure 11a ws-set."""
    shared = generate_hard_instance(_parameters(size))
    world_table = shared.world_table
    shared_descriptors = [dict(d.items()) for d in shared.ws_set]
    rng = random.Random(1000 * size + 17)
    relation = URelation("Q", ("KEY",))
    for key in range(TUPLES):
        names = [f"p{key}_{i}" for i in range(PRIVATE_VARIABLES)]
        for name in names:
            world_table.add_variable(name, {0: 0.5, 1: 0.5})
        for descriptor in shared_descriptors:
            relation.add(dict(descriptor), (key,))
        for _ in range(PRIVATE_DESCRIPTORS):
            chosen = rng.sample(names, 2)
            relation.add({v: rng.randrange(2) for v in chosen}, (key,))
    return world_table, relation


def _grouped(relation: URelation) -> dict[tuple, list]:
    grouped: dict[tuple, list] = {}
    for row in relation:
        grouped.setdefault(row.values, []).append(row.descriptor)
    return grouped


def cold_per_tuple(world_table, relation) -> float:
    """The historical per-call API: a fresh engine per value tuple."""
    total = 0.0
    for descriptors in _grouped(relation).values():
        total += probability(WSSet(descriptors), world_table, ExactConfig())
    return total


def session_batch(world_table, relation) -> float:
    """One session (shared engine + memo) for the whole batch."""
    session = Session(world_table)
    return sum(row.confidence for row in session.confidence_batch(relation))


def run_batching_sweep(sizes=SIZES, repeats=REPEATS) -> tuple[SweepResult, dict]:
    """Measure both strategies per shared-ws-set size; also collect memo stats."""
    result = SweepResult(
        title=(
            "Session batching (Figure 11a shared lineage: n=16, r=2, s=4, "
            f"{TUPLES} tuples)"
        ),
        x_label="shared ws-set size",
    )
    cold_series = Series("cold-per-tuple")
    session_series = Series("session-batch")
    memo_stats: dict[str, dict] = {}
    for size in sizes:
        world_table, relation = build_workload(size)

        seconds, cold_value = measure(
            lambda: cold_per_tuple(world_table, relation), repeats=repeats
        )
        cold_series.points.append(
            MeasuredPoint("cold-per-tuple", size, seconds, cold_value, repeats)
        )

        seconds, batch_value = measure(
            lambda: session_batch(world_table, relation), repeats=repeats
        )
        session_series.points.append(
            MeasuredPoint("session-batch", size, seconds, batch_value, repeats)
        )

        assert abs(cold_value - batch_value) < 1e-9, "strategies must agree"

        probe = Session(world_table)
        probe.confidence_batch(relation)
        stats = probe.statistics()
        memo_stats[f"{size:g}"] = {
            "computations": stats.computations,
            "frames": stats.frames,
            "memo_hits": stats.memo_hits,
            "memo_size": stats.memo_size,
        }
    result.series = [cold_series, session_series]
    return result, memo_stats


def speedup_summary(result: SweepResult) -> dict:
    """Per-size and overall ``cold seconds / session seconds`` ratios."""
    cold = {p.x: p.seconds for p in result.series_by_method("cold-per-tuple").points}
    batched = {p.x: p.seconds for p in result.series_by_method("session-batch").points}
    per_size = {
        f"{x:g}": round(cold[x] / batched[x], 3)
        for x in sorted(cold)
        if batched.get(x)
    }
    total_cold = sum(cold.values())
    total_batched = sum(batched.values())
    return {
        "per_size": per_size,
        "overall": round(total_cold / total_batched, 3),
        "cold_total_seconds": round(total_cold, 6),
        "session_total_seconds": round(total_batched, 6),
    }


def main(report_path: "str | Path | None" = None) -> Path:
    result, memo_stats = run_batching_sweep()
    summary = speedup_summary(result)
    if report_path is None:
        report_path = Path(__file__).resolve().parent.parent / REPORT_NAME
    path = write_sweep_json(
        result,
        report_path,
        extra={
            "workload": {
                "figure": "11a",
                "num_variables": 16,
                "alternatives": 2,
                "descriptor_length": 4,
                "shared_sizes": list(SIZES),
                "tuples": TUPLES,
                "private_variables_per_tuple": PRIVATE_VARIABLES,
                "private_descriptors_per_tuple": PRIVATE_DESCRIPTORS,
                "repeats": REPEATS,
            },
            "session_memo": memo_stats,
            "speedup": summary,
        },
    )
    print(format_sweep_result(result))
    print(
        f"session-batch vs cold-per-tuple speedup: overall {summary['overall']}x, "
        f"per size {summary['per_size']}"
    )
    print(f"wrote {path}")
    return path


if __name__ == "__main__":
    main()
