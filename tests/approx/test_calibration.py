"""Statistical calibration of the estimators against brute-force ground truth.

Each estimator promises an (ε, δ) guarantee: Karp-Luby a *relative* one
(``|est − p| ≤ ε·p`` with probability ≥ 1 − δ), naive Monte-Carlo an
*additive* one (``|est − p| ≤ ε``).  Over ``n`` seeded random instances the
number of misses must therefore stay within ``δ·n`` — a check on the
guarantee itself rather than on one hand-picked tolerance per instance.
A ``hybrid`` request whose exact leg cannot finish inside its one-call budget
falls back to Karp-Luby and must carry the same guarantee.
"""

from __future__ import annotations

import random

import pytest

from repro.approx.karp_luby import karp_luby_confidence
from repro.approx.montecarlo import naive_monte_carlo_confidence
from repro.core.bruteforce import brute_force_probability
from repro.core.interned import InternedEngine
from repro.core.probability import ExactConfig
from repro.db.session import Session
from repro.workloads.random_instances import random_world_table, random_wsset

INSTANCES = 200
GUARANTEES = [(0.1, 0.1), (0.2, 0.2)]


@pytest.fixture(scope="module")
def instances():
    """``(seed, world_table, ws_set, exact)`` over 6 variables of ≤ 3 values,
    with 2–8 descriptors each."""
    drawn = []
    for seed in range(INSTANCES):
        rng = random.Random(seed)
        world_table = random_world_table(rng, num_variables=6, max_domain_size=3)
        ws_set = random_wsset(
            rng, world_table, num_descriptors=rng.randint(2, 8), max_length=3
        )
        exact = brute_force_probability(ws_set, world_table)
        drawn.append((seed, world_table, ws_set, exact))
    return drawn


@pytest.mark.parametrize("epsilon, delta", GUARANTEES)
def test_karp_luby_relative_misses_within_delta(instances, epsilon, delta):
    misses = 0
    for seed, world_table, ws_set, exact in instances:
        result = karp_luby_confidence(ws_set, world_table, epsilon, delta, seed=seed)
        misses += abs(result.estimate - exact) > epsilon * exact
    assert misses <= delta * len(instances)


@pytest.mark.parametrize("epsilon, delta", GUARANTEES)
def test_monte_carlo_additive_misses_within_delta(instances, epsilon, delta):
    misses = 0
    for seed, world_table, ws_set, exact in instances:
        result = naive_monte_carlo_confidence(
            ws_set, world_table, epsilon=epsilon, delta=delta, seed=seed
        )
        misses += abs(result.estimate - exact) > epsilon
    assert misses <= delta * len(instances)


@pytest.mark.parametrize("epsilon, delta", GUARANTEES)
def test_hybrid_fallback_keeps_the_requested_guarantee(instances, epsilon, delta):
    """``max_calls=1`` forces the fallback wherever one frame cannot answer."""
    fallbacks = misses = 0
    for seed, world_table, ws_set, exact in instances:
        one_frame = InternedEngine(world_table, ExactConfig()).cached_wsset(ws_set)
        result = Session(world_table, seed=seed).confidence(
            ws_set, "hybrid", max_calls=1, epsilon=epsilon, delta=delta
        )
        assert result.fell_back == (one_frame is None), seed
        if not result.fell_back:
            assert result.value == one_frame
            continue
        fallbacks += 1
        assert (result.method, result.epsilon, result.delta) == (
            "karp_luby",
            epsilon,
            delta,
        )
        misses += abs(result.value - exact) > epsilon * exact
    # 32 of these 200 need more than one frame; the rest fit the closed form.
    assert fallbacks >= 30
    assert misses <= delta * fallbacks
