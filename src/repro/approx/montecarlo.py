"""Naive Monte-Carlo confidence estimation.

The simplest possible baseline: sample complete worlds from the world table
and count how many satisfy the ws-set.  Unlike Karp-Luby this is *not* an
FPRAS — the relative error blows up for low-confidence events because almost
all samples miss — but it is a useful sanity baseline and is cheap when the
confidence is large (which is exactly the regime of Figure 11(b), where the
answer confidence is close to one).

Like the Karp-Luby estimator, the sampler runs on the interned substrate:
worlds are sampled as dense ``variable_id -> value_id`` assignments through
precomputed cumulative weight arrays and satisfaction is a scan over packed
int tuples.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import TYPE_CHECKING

from repro.approx.karp_luby import ApproximationResult
from repro.approx.stopping import zero_one_estimator_iterations
from repro.core.wsset import WSSet
from repro.obs.trace import span as _span

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import WorldTable


def naive_monte_carlo_confidence(
    ws_set: WSSet,
    world_table: "WorldTable",
    *,
    epsilon: float = 0.05,
    delta: float = 0.05,
    seed: int | None = None,
) -> ApproximationResult:
    """Estimate the confidence of ``ws_set`` by sampling complete worlds.

    The number of samples is the Chernoff-style bound that guarantees an
    *additive* (ε, δ)-approximation.  Only the variables mentioned by
    the ws-set are sampled; the others are irrelevant to the event.  A
    descriptor over a variable the world table does not know raises
    :class:`~repro.errors.UnknownVariableError`, like every other method.
    """
    if ws_set.is_empty:
        return ApproximationResult(0.0, 0, epsilon, delta, "naive-mc")
    if ws_set.contains_universal:
        return ApproximationResult(1.0, 0, epsilon, delta, "naive-mc")

    iterations = zero_one_estimator_iterations(epsilon, delta)
    rng = random.Random(seed)

    with _span("montecarlo_sample", iterations=iterations):
        hits = _sample(ws_set, world_table, rng, iterations)
    return ApproximationResult(hits / iterations, iterations, epsilon, delta, "naive-mc")


def _sample(
    ws_set: WSSet, world_table: "WorldTable", rng: random.Random, iterations: int
) -> int:
    """Count satisfying worlds over packed descriptors and dense value ids."""
    space = world_table.interned()
    shift = space.shift
    value_mask = space.mask
    # Out-of-domain values drop the clause (it holds in no sampled world).
    clauses = space.intern_wsset(ws_set)
    if not clauses:
        return 0
    relevant = sorted({p >> shift for clause in clauses for p in clause})
    cumulative = [
        list(accumulate(space.weights[variable_id])) for variable_id in relevant
    ]
    random_value = rng.random
    world: dict[int, int] = {}
    hits = 0
    for _ in range(iterations):
        for variable_id, weights in zip(relevant, cumulative):
            world[variable_id] = bisect(
                weights, random_value() * weights[-1], 0, len(weights) - 1
            )
        for clause in clauses:
            for p in clause:
                if world[p >> shift] != p & value_mask:
                    break
            else:
                hits += 1
                break
    return hits
