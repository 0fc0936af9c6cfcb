"""Tests for the approximation baselines: Karp-Luby, naive MC, stopping rules."""

from __future__ import annotations

import random

import pytest

from repro.approx.karp_luby import (
    ApproximationResult,
    KarpLubyEstimator,
    karp_luby_confidence,
)
from repro.approx.montecarlo import naive_monte_carlo_confidence
from repro.approx.stopping import (
    optimal_stopping_rule,
    zero_one_estimator_iterations,
)
from repro.core.bruteforce import brute_force_probability
from repro.core.probability import probability
from repro.core.wsset import WSSet
from repro.workloads.random_instances import random_world_table, random_wsset


class TestStoppingRules:
    def test_bound_parameters_validated(self):
        with pytest.raises(ValueError):
            zero_one_estimator_iterations(1.5, 0.1)
        with pytest.raises(ValueError):
            zero_one_estimator_iterations(0.1, 0.0)

    def test_zero_one_iterations(self):
        assert zero_one_estimator_iterations(0.1, 0.1) > 100

    def test_optimal_stopping_on_constant_stream(self):
        result = optimal_stopping_rule(lambda: 0.5, epsilon=0.2, delta=0.1)
        assert result.estimate == pytest.approx(0.5, rel=0.25)
        assert result.iterations > 0

    def test_optimal_stopping_on_bernoulli(self):
        rng = random.Random(0)
        result = optimal_stopping_rule(
            lambda: 1.0 if rng.random() < 0.3 else 0.0, epsilon=0.15, delta=0.1
        )
        assert result.estimate == pytest.approx(0.3, rel=0.2)

    def test_optimal_stopping_honours_cap(self):
        result = optimal_stopping_rule(
            lambda: 0.0, epsilon=0.1, delta=0.1, max_iterations=50
        )
        assert result.iterations == 50
        assert result.estimate == 0.0

    def test_optimal_stopping_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError):
            optimal_stopping_rule(lambda: 2.0, epsilon=0.1, delta=0.1)


class TestKarpLuby:
    def test_matches_exact_on_paper_example(self, figure3_wsset, figure3_world_table):
        exact = probability(figure3_wsset, figure3_world_table)
        result = karp_luby_confidence(
            figure3_wsset, figure3_world_table, epsilon=0.05, delta=0.05, seed=11
        )
        assert result.estimate == pytest.approx(exact, rel=0.1)
        assert result.iterations > 0

    def test_edge_cases(self, figure3_world_table):
        assert karp_luby_confidence(WSSet.empty(), figure3_world_table).estimate == 0.0
        assert (
            karp_luby_confidence(WSSet.universal(), figure3_world_table).estimate
            == 1.0
        )

    def test_mutex_exhaustive_set_estimates_one(self, figure3_world_table):
        s = WSSet([{"x": 1}, {"x": 2}, {"x": 3}])
        result = karp_luby_confidence(s, figure3_world_table, 0.05, 0.05, seed=2)
        assert result.estimate == pytest.approx(1.0, rel=0.05)

    def test_estimate_requires_positive_iterations(
        self, figure3_wsset, figure3_world_table
    ):
        estimator = KarpLubyEstimator(figure3_wsset, figure3_world_table, seed=1)
        with pytest.raises(ValueError):
            estimator.estimate(0)

    def test_result_dataclass_fields(self):
        result = ApproximationResult(0.5, 10, 0.1, 0.1, "karp-luby")
        assert result.method == "karp-luby"

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_close_to_brute_force(self, seed):
        rng = random.Random(seed)
        world_table = random_world_table(rng, num_variables=5, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=5, max_length=3)
        exact = brute_force_probability(ws_set, world_table)
        result = karp_luby_confidence(ws_set, world_table, 0.05, 0.05, seed=seed)
        assert result.estimate == pytest.approx(exact, rel=0.15, abs=0.02)


class TestNaiveMonteCarlo:
    def test_matches_exact_on_paper_example(self, figure3_wsset, figure3_world_table):
        exact = probability(figure3_wsset, figure3_world_table)
        result = naive_monte_carlo_confidence(
            figure3_wsset, figure3_world_table, epsilon=0.02, delta=0.05, seed=4
        )
        assert result.estimate == pytest.approx(exact, abs=0.02)
        assert result.method == "naive-mc"

    def test_default_iteration_bound_used(self, figure3_world_table):
        result = naive_monte_carlo_confidence(
            WSSet([{"u": 1}]), figure3_world_table, epsilon=0.1, delta=0.1, seed=1
        )
        assert result.iterations == zero_one_estimator_iterations(0.1, 0.1)
        assert result.estimate == pytest.approx(0.7, abs=0.08)

    def test_edge_cases(self, figure3_world_table):
        assert (
            naive_monte_carlo_confidence(WSSet.empty(), figure3_world_table).estimate
            == 0.0
        )
        universal = naive_monte_carlo_confidence(
            WSSet.universal(), figure3_world_table
        )
        assert universal.estimate == 1.0
