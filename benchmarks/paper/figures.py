"""Per-figure experiment definitions (paper, Section 7).

Every table and figure of the paper's experimental section has one entry
point here.  The default parameters are scaled down from the paper's (the
paper's C++ implementation ran on dedicated hardware; this is a pure-Python
substrate), but each function accepts the sweep parameters explicitly so
larger runs are a call away.  What is compared against the paper is the
*shape* of the results — which method wins, where the crossovers and the
easy-hard-easy transitions are — not absolute times.

Run from the command line::

    PYTHONPATH=src:benchmarks python -m paper.figures --figure 10
    PYTHONPATH=src:benchmarks python -m paper.figures --figure 11a --full
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import Sequence

from paper.reporting import format_sweep_result, format_table
from paper.runner import SweepResult, measure, method_registry, run_sweep
from repro.core.conditioning import condition_wsset
from repro.core.probability import ExactConfig, probability
from repro.workloads.hard import HardCaseParameters, sweep_wsset_sizes
from repro.workloads.tpch import TPCHGenerator, query_q1, query_q2

# ----------------------------------------------------------------------
# Figure 10: TPC-H queries Q1 and Q2
# ----------------------------------------------------------------------
#: Scale factors used by default (the paper uses 0.01 / 0.05 / 0.10 with the
#: native dbgen; the pure-Python substrate uses proportionally smaller ones).
DEFAULT_TPCH_SCALE_FACTORS = (0.0002, 0.0005, 0.001)


@dataclass
class Figure10Row:
    """One row of the Figure 10 table."""

    query: str
    scale_factor: float
    input_variables: int
    wsset_size: int
    seconds: float


def figure10(
    scale_factors: Sequence[float] = DEFAULT_TPCH_SCALE_FACTORS,
    *,
    seed: int = 0,
    config: ExactConfig | None = None,
) -> list[Figure10Row]:
    """The Figure 10 table: Q1/Q2 over TPC-H-like data, INDVE(minlog) timing.

    For each scale factor the row reports the number of input variables (the
    tuples of the relations referenced by the query), the size of the answer
    ws-set, and the time INDVE(minlog) takes to compute the exact confidence
    of the Boolean query.
    """
    config = config or ExactConfig.indve("minlog")
    rows: list[Figure10Row] = []
    for scale_factor in scale_factors:
        instance = TPCHGenerator(scale_factor=scale_factor, seed=seed).generate()
        database = instance.database

        q1_wsset = query_q1(database)
        q1_inputs = instance.relation_variable_count("customer", "orders", "lineitem")
        seconds, _ = measure(
            lambda: probability(q1_wsset, database.world_table, config)
        )
        rows.append(Figure10Row("Q1", scale_factor, q1_inputs, len(q1_wsset), seconds))

        q2_wsset = query_q2(database)
        q2_inputs = instance.relation_variable_count("lineitem")
        seconds, _ = measure(
            lambda: probability(q2_wsset, database.world_table, config)
        )
        rows.append(Figure10Row("Q2", scale_factor, q2_inputs, len(q2_wsset), seconds))
    return rows


def figure10_table(rows: Sequence[Figure10Row]) -> str:
    """Render Figure 10 rows the way the paper's table lays them out."""
    return format_table(
        [
            (
                row.query,
                row.scale_factor,
                row.input_variables,
                row.wsset_size,
                row.seconds,
            )
            for row in rows
        ],
        headers=("Query", "TPC-H scale", "#Input vars", "Size of ws-set", "Time (s)"),
    )


# ----------------------------------------------------------------------
# Figures 11(a), 11(b), 12, 13: the #P-hard generator sweeps
# ----------------------------------------------------------------------
def figure11a(
    sizes: Sequence[int] = (32, 64, 128, 256),
    *,
    num_variables: int = 16,
    alternatives: int = 2,
    descriptor_length: int = 4,
    seed: int = 0,
    repeats: int = 1,
    time_limit: float | None = 60.0,
    kl_max_iterations: int | None = 30_000,
) -> SweepResult:
    """Figure 11(a): few variables, many ws-descriptors.

    Paper parameters: 100 variables, r=4(2), s=4, ws-set sizes 1k-50k; methods
    kl(e.01), indve, kl(e.1), ve.  Finding to reproduce: VE and INDVE(minlog)
    are stable and fast once the ws-set is much larger than the variable set,
    and beat both Karp-Luby configurations.
    """
    base = HardCaseParameters(
        num_variables=num_variables,
        alternatives=alternatives,
        descriptor_length=descriptor_length,
        num_descriptors=sizes[0],
        seed=seed,
    )
    instances = sweep_wsset_sizes(base, list(sizes))
    methods = method_registry(
        epsilons=(0.1, 0.01),
        include_exact=("indve(minlog)", "ve(minlog)"),
        seed=seed,
        time_limit=time_limit,
        kl_max_iterations=kl_max_iterations,
    )
    return run_sweep(
        title=(
            "Figure 11(a): few variables, many ws-descriptors "
            f"(n={num_variables}, r={alternatives}, s={descriptor_length})"
        ),
        x_label="ws-set size",
        instances=[(i.wsset_size, i.ws_set, i.world_table) for i in instances],
        methods=methods,
        repeats=repeats,
        time_limit=time_limit,
    )


def figure11b(
    sizes: Sequence[int] = (50, 100, 200, 400),
    *,
    num_variables: int = 2000,
    alternatives: int = 4,
    descriptor_length: int = 2,
    seed: int = 0,
    repeats: int = 1,
    time_limit: float | None = 60.0,
    kl_max_iterations: int | None = 20_000,
) -> SweepResult:
    """Figure 11(b): many variables, few ws-descriptors.

    Paper parameters: 100k variables, r=4, s=2, ws-set sizes 0.1k-6k; methods
    kl(e.01), kl(e.1), indve.  Finding to reproduce: independent partitioning
    pays off (descriptors rarely share variables), INDVE runs in seconds and
    the Karp-Luby baselines are nearly flat because the confidence is close to
    one and the optimal stopping rule needs few iterations.
    """
    base = HardCaseParameters(
        num_variables=num_variables,
        alternatives=alternatives,
        descriptor_length=descriptor_length,
        num_descriptors=sizes[0],
        seed=seed,
    )
    instances = sweep_wsset_sizes(base, list(sizes))
    methods = method_registry(
        epsilons=(0.1, 0.01),
        include_exact=("indve(minlog)",),
        seed=seed,
        time_limit=time_limit,
        kl_max_iterations=kl_max_iterations,
    )
    return run_sweep(
        title=(
            "Figure 11(b): many variables, few ws-descriptors "
            f"(n={num_variables}, r={alternatives}, s={descriptor_length})"
        ),
        x_label="ws-set size",
        instances=[(i.wsset_size, i.ws_set, i.world_table) for i in instances],
        methods=methods,
        repeats=repeats,
        time_limit=time_limit,
    )


def figure12(
    sizes: Sequence[int] = (10, 20, 40, 80, 160, 320),
    *,
    num_variables: int = 30,
    alternatives: int = 2,
    descriptor_length: int = 4,
    seed: int = 0,
    repeats: int = 1,
    time_limit: float | None = 30.0,
    kl_max_iterations: int | None = 50_000,
) -> SweepResult:
    """Figure 12: number of variables close to the ws-set size (easy-hard-easy).

    Paper parameters: 70 variables, r=4, s=4, ws-set sizes 5-5000; methods
    indve(minlog) (min/median/max of 20 runs) and kl(e.001).  Finding to
    reproduce: computation is hard when #descriptors ≈ #variables and becomes
    easy again once the ws-set is an order of magnitude larger; kl(e.001) only
    wins inside the hard region.
    """
    base = HardCaseParameters(
        num_variables=num_variables,
        alternatives=alternatives,
        descriptor_length=descriptor_length,
        num_descriptors=sizes[0],
        seed=seed,
    )
    instances = sweep_wsset_sizes(base, list(sizes))
    methods = method_registry(
        epsilons=(0.01,),
        include_exact=("indve(minlog)",),
        seed=seed,
        time_limit=time_limit,
        kl_max_iterations=kl_max_iterations,
    )
    return run_sweep(
        title=(
            "Figure 12: #variables close to ws-set size "
            f"(n={num_variables}, r={alternatives}, s={descriptor_length})"
        ),
        x_label="ws-set size",
        instances=[(i.wsset_size, i.ws_set, i.world_table) for i in instances],
        methods=methods,
        repeats=repeats,
        time_limit=time_limit,
    )


def figure13(
    sizes: Sequence[int] = (50, 100, 200, 300),
    *,
    num_variables: int = 2000,
    alternatives: int = 2,
    descriptor_length: int = 4,
    seed: int = 0,
    repeats: int = 1,
    time_limit: float | None = 60.0,
) -> SweepResult:
    """Figure 13: the minmax versus minlog heuristics.

    Paper parameters: 100k variables, r=4(2), s=4, ws-set sizes 50-1000.
    Finding to reproduce: minlog finds better variable orders and is less
    sensitive to data correlations than minmax, even though it is slightly
    more expensive to evaluate.
    """
    base = HardCaseParameters(
        num_variables=num_variables,
        alternatives=alternatives,
        descriptor_length=descriptor_length,
        num_descriptors=sizes[0],
        seed=seed,
    )
    instances = sweep_wsset_sizes(base, list(sizes))
    methods = method_registry(
        include_exact=("indve(minlog)", "indve(minmax)"),
        seed=seed,
        time_limit=time_limit,
    )
    return run_sweep(
        title=(
            "Figure 13: minmax vs minlog heuristics "
            f"(n={num_variables}, r={alternatives}, s={descriptor_length})"
        ),
        x_label="ws-set size",
        instances=[(i.wsset_size, i.ws_set, i.world_table) for i in instances],
        methods=methods,
        repeats=repeats,
        time_limit=time_limit,
    )


# ----------------------------------------------------------------------
# Ablations: the exact methods and the engine options
# ----------------------------------------------------------------------
def ablation_methods(
    sizes: Sequence[int] = (20, 40, 80, 160),
    *,
    num_variables: int = 30,
    alternatives: int = 2,
    descriptor_length: int = 3,
    seed: int = 0,
    time_limit: float | None = 60.0,
) -> SweepResult:
    """INDVE vs VE vs WE (the Section 6 baseline) on one family of instances."""
    base = HardCaseParameters(
        num_variables=num_variables,
        alternatives=alternatives,
        descriptor_length=descriptor_length,
        num_descriptors=sizes[0],
        seed=seed,
    )
    instances = sweep_wsset_sizes(base, list(sizes))
    methods = method_registry(
        include_exact=("indve(minlog)", "ve(minlog)"),
        include_we=True,
        seed=seed,
        time_limit=time_limit,
    )
    return run_sweep(
        title="Ablation: INDVE vs VE vs WE",
        x_label="ws-set size",
        instances=[(i.wsset_size, i.ws_set, i.world_table) for i in instances],
        methods=methods,
        time_limit=time_limit,
    )


def ablation_engine_options(
    sizes: Sequence[int] = (50, 100, 200),
    *,
    num_variables: int = 40,
    alternatives: int = 4,
    descriptor_length: int = 4,
    seed: int = 0,
    time_limit: float | None = 60.0,
) -> SweepResult:
    """Engine-option ablation: memoisation, per-step subsumption, heuristics."""
    base = HardCaseParameters(
        num_variables=num_variables,
        alternatives=alternatives,
        descriptor_length=descriptor_length,
        num_descriptors=sizes[0],
        seed=seed,
    )
    instances = sweep_wsset_sizes(base, list(sizes))
    configurations = {
        # indve(minlog) is the paper's configuration and memoises like the
        # default; the ablation pair is therefore memoisation on vs off.
        "indve(minlog)": ExactConfig.indve("minlog", time_limit=time_limit),
        "indve-no-memo": ExactConfig.indve(
            "minlog", memoize=False, time_limit=time_limit
        ),
        "indve+subsume-steps": ExactConfig.indve(
            "minlog", subsumption_every_step=True, time_limit=time_limit
        ),
        "indve(frequency)": ExactConfig.indve("frequency", time_limit=time_limit),
    }
    methods = {
        name: (lambda ws, wt, _config=config: probability(ws, wt, _config))
        for name, config in configurations.items()
    }
    return run_sweep(
        title="Ablation: engine options (memoisation, subsumption, heuristics)",
        x_label="ws-set size",
        instances=[(i.wsset_size, i.ws_set, i.world_table) for i in instances],
        methods=methods,
        time_limit=time_limit,
    )


def conditioning_overhead(
    sizes: Sequence[int] = (50, 100, 200, 400),
    *,
    num_variables: int = 200,
    alternatives: int = 2,
    descriptor_length: int = 2,
    seed: int = 0,
) -> list[tuple[int, float, float]]:
    """Confidence computation vs full conditioning on the same ws-sets.

    Reproduces the claim of Section 7 that computing the conditioned
    representation "adds only a small overhead over confidence computation":
    returns ``(ws-set size, confidence seconds, conditioning seconds)`` rows.
    The conditioning run uses the ws-set's own descriptors as the tuple
    descriptors to rewrite, mimicking a database whose tuples are exactly the
    query answers.
    """
    base = HardCaseParameters(
        num_variables=num_variables,
        alternatives=alternatives,
        descriptor_length=descriptor_length,
        num_descriptors=sizes[0],
        seed=seed,
    )
    rows = []
    for instance in sweep_wsset_sizes(base, list(sizes)):
        ws_set, world_table = instance.ws_set, instance.world_table
        tuples = [(index, descriptor) for index, descriptor in enumerate(ws_set)]
        confidence_seconds, _ = measure(lambda: probability(ws_set, world_table))
        conditioning_seconds, _ = measure(
            lambda: condition_wsset(ws_set, tuples, world_table)
        )
        rows.append((instance.wsset_size, confidence_seconds, conditioning_seconds))
    return rows


def conditioning_overhead_table(rows: Sequence[tuple[int, float, float]]) -> str:
    """Render the conditioning-overhead rows as a table."""
    formatted = [
        (size, confidence_s, conditioning_s,
         conditioning_s / confidence_s if confidence_s > 0 else float("nan"))
        for size, confidence_s, conditioning_s in rows
    ]
    return format_table(
        formatted,
        headers=("ws-set size", "confidence (s)", "conditioning (s)", "overhead factor"),
    )


# ----------------------------------------------------------------------
# Command-line entry point
# ----------------------------------------------------------------------
_FIGURES = {
    "10": lambda full: figure10_table(
        figure10(DEFAULT_TPCH_SCALE_FACTORS if not full else (0.0005, 0.001, 0.002))
    ),
    "11a": lambda full: format_sweep_result(
        figure11a() if not full else figure11a(sizes=(200, 400, 800, 1600, 3200, 6400))
    ),
    "11b": lambda full: format_sweep_result(
        figure11b() if not full else figure11b(sizes=(100, 250, 500, 1000, 2500, 6000),
                                               num_variables=20000)
    ),
    "12": lambda full: format_sweep_result(
        figure12() if not full else figure12(sizes=(5, 12, 24, 48, 120, 300, 800, 2000))
    ),
    "13": lambda full: format_sweep_result(
        figure13() if not full else figure13(sizes=(50, 100, 200, 400, 700, 1000))
    ),
    "ablation-methods": lambda full: format_sweep_result(ablation_methods()),
    "ablation-options": lambda full: format_sweep_result(ablation_engine_options()),
    "conditioning-overhead": lambda full: conditioning_overhead_table(
        conditioning_overhead()
    ),
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one experiment from the command line and print its table."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figure",
        choices=sorted(_FIGURES),
        required=True,
        help="which table/figure of the paper to regenerate",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use larger sweep sizes (closer to the paper's, but much slower)",
    )
    arguments = parser.parse_args(argv)
    started = time.perf_counter()
    print(_FIGURES[arguments.figure](arguments.full))
    print(f"\n(total experiment time: {time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
