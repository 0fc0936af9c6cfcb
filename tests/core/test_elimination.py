"""Unit tests for ws-descriptor elimination (Section 6, the WE method)."""

from __future__ import annotations

import random

import pytest

from repro.core.bruteforce import brute_force_probability
from repro.core.elimination import (
    descriptor_elimination_probability,
    descriptor_elimination_with_stats,
    mutex_normal_form,
)
from repro.core.wsset import WSSet
from repro.errors import BudgetExceededError
from repro.workloads.random_instances import random_world_table, random_wsset


class TestExamples:
    def test_example_61(self, figure2_world_table):
        """Example 6.1: Pw({d1, d2, d3}) = P(d2) + P(d1) = 1 for the SSN variables.

        With d1 = {j→1}, d2 = {j→7}, d3 = {j→1, b→4}: d3 is subsumed by d1, so
        the total is P(j→1) + P(j→7) = 1.
        """
        s = WSSet([{"j": 1}, {"j": 7}, {"j": 1, "b": 4}])
        assert descriptor_elimination_probability(
            s, figure2_world_table
        ) == pytest.approx(1.0)

    def test_example_47_wsset(self, figure3_wsset, figure3_world_table):
        assert descriptor_elimination_probability(
            figure3_wsset, figure3_world_table
        ) == pytest.approx(0.7578)

    def test_fd_condition(self, figure2_world_table):
        condition = WSSet([{"j": 1}, {"j": 7, "b": 4}])
        assert descriptor_elimination_probability(
            condition, figure2_world_table
        ) == pytest.approx(0.44)


class TestEdgeCases:
    def test_empty_set(self, figure3_world_table):
        assert (
            descriptor_elimination_probability(WSSet.empty(), figure3_world_table)
            == 0.0
        )

    def test_universal_set(self, figure3_world_table):
        assert (
            descriptor_elimination_probability(WSSet.universal(), figure3_world_table)
            == 1.0
        )

    def test_single_descriptor(self, figure3_world_table):
        s = WSSet([{"x": 2, "y": 1}])
        assert descriptor_elimination_probability(
            s, figure3_world_table
        ) == pytest.approx(0.4 * 0.2)

    def test_stats_counts(self, figure3_wsset, figure3_world_table):
        result = descriptor_elimination_with_stats(figure3_wsset, figure3_world_table)
        assert result.probability == pytest.approx(0.7578)
        assert result.eliminated_descriptors == len(figure3_wsset)
        assert result.generated_descriptors >= len(figure3_wsset)

    def test_budget(self, figure3_wsset, figure3_world_table):
        with pytest.raises(BudgetExceededError):
            descriptor_elimination_probability(
                figure3_wsset, figure3_world_table, max_calls=1
            )


class TestMutexNormalForm:
    def test_corollary_64_equivalence(self, figure3_wsset, figure3_world_table):
        normal_form = mutex_normal_form(figure3_wsset, figure3_world_table)
        assert normal_form.is_pairwise_mutex()
        assert brute_force_probability(
            normal_form, figure3_world_table
        ) == pytest.approx(brute_force_probability(figure3_wsset, figure3_world_table))

    def test_mutex_normal_form_of_mutex_set_is_itself(self, figure2_world_table):
        s = WSSet([{"j": 1}, {"j": 7, "b": 4}])
        assert mutex_normal_form(s, figure2_world_table) == s

    @pytest.mark.parametrize("seed", range(8))
    def test_random_normal_forms_are_mutex_and_equivalent(self, seed):
        rng = random.Random(seed)
        world_table = random_world_table(rng, num_variables=4, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=4, max_length=3)
        normal_form = mutex_normal_form(ws_set, world_table)
        assert normal_form.is_pairwise_mutex()
        assert brute_force_probability(normal_form, world_table) == pytest.approx(
            brute_force_probability(ws_set, world_table)
        )


class TestRandomisedAgreement:
    @pytest.mark.parametrize("seed", range(15))
    def test_we_matches_brute_force(self, seed):
        rng = random.Random(3000 + seed)
        world_table = random_world_table(rng, num_variables=4, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=5, max_length=3)
        assert descriptor_elimination_probability(ws_set, world_table) == pytest.approx(
            brute_force_probability(ws_set, world_table)
        )
