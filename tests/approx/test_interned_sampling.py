"""Tests for the interned sampling substrate of Karp-Luby and naive MC.

The key guarantees: the samplers are unbiased (fixed-seed estimates land
within tolerance of the exact confidence on randomized instances) and are
reproducible per seed.
"""

from __future__ import annotations

import random

import pytest

from repro.approx.karp_luby import KarpLubyEstimator, karp_luby_confidence
from repro.approx.montecarlo import naive_monte_carlo_confidence
from repro.core.bruteforce import brute_force_probability
from repro.core.probability import probability
from repro.core.wsset import WSSet
from repro.db.world_table import WorldTable
from repro.workloads.random_instances import random_world_table, random_wsset


def random_instance(seed, *, num_variables=6, num_descriptors=6, max_length=3):
    rng = random.Random(seed)
    world_table = random_world_table(
        rng, num_variables=num_variables, max_domain_size=3
    )
    ws_set = random_wsset(
        rng, world_table, num_descriptors=num_descriptors, max_length=max_length
    )
    return world_table, ws_set


class TestInternedKarpLuby:
    def test_matches_exact_on_paper_example(self, figure3_wsset, figure3_world_table):
        exact = probability(figure3_wsset, figure3_world_table)
        estimator = KarpLubyEstimator(figure3_wsset, figure3_world_table, seed=7)
        result = estimator.estimate(20000)
        assert result.estimate == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("seed", range(6))
    def test_unbiased_on_random_instances(self, seed):
        world_table, ws_set = random_instance(6100 + seed)
        exact = brute_force_probability(ws_set, world_table)
        kl = KarpLubyEstimator(ws_set, world_table, seed=seed)
        result = kl.estimate(20000)
        assert result.estimate == pytest.approx(exact, rel=0.1, abs=0.02)

    @pytest.mark.parametrize("seed", range(4))
    def test_clause_weights_are_descriptor_probabilities(self, seed):
        world_table, ws_set = random_instance(6200 + seed)
        assert KarpLubyEstimator(ws_set, world_table).weights == pytest.approx(
            [descriptor.probability(world_table) for descriptor in ws_set]
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_clause_weights_equal_ordered_products_on_200_clauses(self, seed):
        # Exact equality, not approx: each clause weight is the product of
        # its assignment probabilities in world-table variable order.
        rng = random.Random(6250 + seed)
        world_table = WorldTable()
        for index in range(60):
            weights = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(2, 4))]
            total = sum(weights)
            world_table.add_variable(
                f"v{index}", {value: w / total for value, w in enumerate(weights)}
            )
        variables = list(world_table.variables)
        clauses = []
        for _ in range(200):
            chosen = rng.sample(variables, 4)
            clauses.append(
                {v: rng.choice(list(world_table.distribution(v))) for v in chosen}
            )
        ws_set = WSSet(clauses)
        expected = []
        for descriptor in ws_set:
            assignment = dict(descriptor.items())
            product = 1.0
            for variable in variables:
                if variable in assignment:
                    product *= world_table.distribution(variable)[assignment[variable]]
            expected.append(product)
        weights = KarpLubyEstimator(ws_set, world_table).weights
        assert len(weights) == len(expected) >= 32
        assert all(got == want for got, want in zip(weights, expected))

    def test_seeded_runs_are_reproducible(self):
        world_table, ws_set = random_instance(6300)
        first = karp_luby_confidence(ws_set, world_table, seed=99)
        second = karp_luby_confidence(ws_set, world_table, seed=99)
        assert first.estimate == second.estimate
        assert first.iterations == second.iterations

    def test_out_of_domain_clause_is_never_sampled(self, figure3_world_table):
        # {x: 99} holds in no world; the interned estimator drops it, leaving
        # the estimate for the remaining clause unchanged.
        ws_set = WSSet([{"x": 99}, {"u": 1}])
        kl = KarpLubyEstimator(ws_set, figure3_world_table, seed=0)
        result = kl.estimate(5000)
        assert result.estimate == pytest.approx(0.7, abs=0.05)

    def test_stopping_rule_through_interned_substrate(
        self, figure3_wsset, figure3_world_table
    ):
        exact = probability(figure3_wsset, figure3_world_table)
        result = karp_luby_confidence(
            figure3_wsset, figure3_world_table, epsilon=0.05, delta=0.05, seed=11
        )
        assert result.estimate == pytest.approx(exact, rel=0.1)
        assert result.iterations > 0


class TestInternedMonteCarlo:
    @pytest.mark.parametrize("seed", range(4))
    def test_unbiased_on_random_instances(self, seed):
        world_table, ws_set = random_instance(6500 + seed)
        exact = brute_force_probability(ws_set, world_table)
        result = naive_monte_carlo_confidence(
            ws_set, world_table, epsilon=0.02, delta=0.05, seed=seed
        )
        assert result.estimate == pytest.approx(exact, abs=0.02)

    def test_seeded_runs_are_reproducible(self):
        world_table, ws_set = random_instance(6700)
        first = naive_monte_carlo_confidence(ws_set, world_table, seed=12)
        second = naive_monte_carlo_confidence(ws_set, world_table, seed=12)
        assert first.estimate == second.estimate
