"""Exploring the #P-hard instances: exact vs approximate confidence computation.

A miniature version of Figures 11 and 12 of the paper: generate ws-sets from
the #P-hard generator at a few sizes, run the exact algorithms (INDVE, VE, WE)
and the Karp-Luby approximation on each, and print a comparison table showing
who wins in which regime.

Run with::

    python examples/hard_instances.py
"""

from __future__ import annotations

import time

from repro import ExactConfig, descriptor_elimination_probability, karp_luby_confidence, probability
from repro.errors import BudgetExceededError
from repro.workloads.hard import HardCaseParameters, generate_hard_instance

#: Per-method time budget (seconds); points above it are reported as timeouts,
#: like the 600s/9000s caps used in the paper's experiments.
TIME_LIMIT = 20.0


def run_method(label, function):
    started = time.perf_counter()
    try:
        value = function()
    except BudgetExceededError:
        return "timeout", float("nan")
    return f"{time.perf_counter() - started:.3f}s", value


def explore(parameters: HardCaseParameters) -> list:
    instance = generate_hard_instance(parameters)
    ws_set, world_table = instance.ws_set, instance.world_table

    indve = ExactConfig.indve("minlog", time_limit=TIME_LIMIT)
    ve = ExactConfig.ve("minlog", time_limit=TIME_LIMIT)

    rows = []
    methods = {
        "indve(minlog)": lambda: probability(ws_set, world_table, indve),
        "ve(minlog)": lambda: probability(ws_set, world_table, ve),
        "we": lambda: descriptor_elimination_probability(
            ws_set, world_table, time_limit=TIME_LIMIT
        ),
        "kl(e=0.1)": lambda: karp_luby_confidence(
            ws_set, world_table, 0.1, 0.01, seed=0
        ).estimate,
    }
    for label, function in methods.items():
        seconds, value = run_method(label, function)
        rows.append(
            (
                parameters.label(),
                label,
                seconds,
                f"{value:.5f}" if value == value else "-",
            )
        )
    return rows


def main() -> None:
    cases = [
        # many variables, few descriptors: independence partitioning shines
        HardCaseParameters(num_variables=2000, alternatives=4,
                           descriptor_length=2, num_descriptors=300, seed=1),
        # few variables, many descriptors: variable elimination terminates fast
        HardCaseParameters(num_variables=16, alternatives=2,
                           descriptor_length=3, num_descriptors=200, seed=1),
        # variables ≈ descriptors: the hard region of Figure 12
        HardCaseParameters(num_variables=16, alternatives=4,
                           descriptor_length=4, num_descriptors=16, seed=1),
    ]
    rows = []
    for case in cases:
        rows.extend(explore(case))
    row_format = "{:<24}  {:<13}  {:>8}  {}"
    print(row_format.format("instance", "method", "time", "confidence"))
    for row in rows:
        print(row_format.format(*row))
    print(
        "\nNote how the exact methods are fastest in the two extreme regimes while\n"
        "the hard region (#descriptors ≈ #variables) is where approximation can win,\n"
        "matching Figures 11 and 12 of the paper."
    )


if __name__ == "__main__":
    main()
