"""Ablation E7: engine options — memoisation, subsumption, heuristics.

These knobs are not part of the paper's algorithm (memoisation is BDD-style
node sharing; per-step subsumption generalises Example 3.2); the benchmarks
quantify whether they pay for themselves on the #P-hard workload.
"""

from __future__ import annotations

import pytest

from repro.core.probability import ExactConfig, probability
from repro.errors import BudgetExceededError
from repro.workloads.hard import HardCaseParameters

TIME_LIMIT = 15.0

CONFIGURATIONS = {
    "baseline": ExactConfig.indve("minlog", time_limit=TIME_LIMIT),
    "no-memo": ExactConfig.indve("minlog", memoize=False, time_limit=TIME_LIMIT),
    "subsumption-every-step": ExactConfig.indve(
        "minlog", subsumption_every_step=True, time_limit=TIME_LIMIT
    ),
    "frequency-heuristic": ExactConfig.indve("frequency", time_limit=TIME_LIMIT),
    "first-variable-heuristic": ExactConfig.indve("first", time_limit=TIME_LIMIT),
}


def _parameters(size: int) -> HardCaseParameters:
    return HardCaseParameters(
        num_variables=24, alternatives=2, descriptor_length=4,
        num_descriptors=size, seed=2,
    )


@pytest.mark.parametrize("size", (40, 80))
@pytest.mark.parametrize("option", sorted(CONFIGURATIONS))
def bench_engine_options(benchmark, hard_instance_cache, size, option):
    instance = hard_instance_cache(_parameters(size))
    config = CONFIGURATIONS[option]

    def run():
        try:
            return probability(instance.ws_set, instance.world_table, config)
        except BudgetExceededError:
            return float("nan")

    value = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["confidence"] = value
