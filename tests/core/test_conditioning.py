"""Unit tests for the conditioning algorithm (Section 5, Figure 8, Theorem 5.3)."""

from __future__ import annotations

import random

import pytest

from repro.core.bruteforce import brute_force_posterior_worlds
from repro.core.conditioning import (
    condition_wsset,
    conditioned_world_table,
    posterior_probability,
)
from repro.core.descriptors import WSDescriptor
from repro.core.probability import ExactConfig, probability
from repro.core.wsset import WSSet
from repro.db.world_table import WorldTable
from repro.errors import ZeroProbabilityConditionError
from repro.workloads.random_instances import random_world_table, random_wsset

# The literal Figure 8 recursion lives beside this file as a test oracle.
from figure8_oracle import condition_literal


def posterior_tuple_marginals(result, tuples, world_table):
    """Marginal presence probability of each tuple tag in the conditioned database."""
    combined = conditioned_world_table(world_table, result)
    marginals = {}
    for tag, _ in tuples:
        ws_set = WSSet(result.rewritten.get(tag, ()))
        marginals[tag] = probability(ws_set, combined) if len(ws_set) else 0.0
    return marginals


def brute_force_tuple_marginals(condition, tuples, world_table):
    """Ground-truth posterior marginals by enumerating and renormalising worlds."""
    posterior = brute_force_posterior_worlds(condition, world_table)
    marginals = {tag: 0.0 for tag, _ in tuples}
    for world, weight in posterior:
        for tag, descriptor in tuples:
            if descriptor.is_satisfied_by(world):
                marginals[tag] += weight
    return marginals


class TestIntroductionExample:
    """The SSN -> NAME conditioning of Sections 1 and 5 (Example 5.1)."""

    condition = WSSet([{"j": 1}, {"j": 7, "b": 4}])

    def tuples(self):
        return [
            ("john1", WSDescriptor({"j": 1})),
            ("john7", WSDescriptor({"j": 7})),
            ("bill4", WSDescriptor({"b": 4})),
            ("bill7", WSDescriptor({"b": 7})),
        ]

    def test_confidence_is_044(self, figure2_world_table):
        result = condition_wsset(self.condition, self.tuples(), figure2_world_table)
        assert result.confidence == pytest.approx(0.44)

    def test_posterior_marginals_match_bayes(self, figure2_world_table):
        result = condition_wsset(self.condition, self.tuples(), figure2_world_table)
        marginals = posterior_tuple_marginals(
            result, self.tuples(), figure2_world_table
        )
        assert marginals["bill4"] == pytest.approx(0.3 / 0.44)
        assert marginals["bill7"] == pytest.approx(1 - 0.3 / 0.44)
        assert marginals["john1"] == pytest.approx(0.2 / 0.44)
        assert marginals["john7"] == pytest.approx(1 - 0.2 / 0.44)

    def test_posterior_matches_brute_force(self, figure2_world_table):
        result = condition_wsset(self.condition, self.tuples(), figure2_world_table)
        expected = brute_force_tuple_marginals(
            self.condition, self.tuples(), figure2_world_table
        )
        actual = posterior_tuple_marginals(result, self.tuples(), figure2_world_table)
        for tag, value in expected.items():
            assert actual[tag] == pytest.approx(value), tag

    def test_new_variable_distributions_sum_to_one(self, figure2_world_table):
        result = condition_wsset(self.condition, self.tuples(), figure2_world_table)
        for variable in result.delta_world_table.variables:
            distribution = result.delta_world_table.distribution(variable)
            assert sum(distribution.values()) == pytest.approx(1.0)

    def test_variable_sources_point_to_original_variables(self, figure2_world_table):
        result = condition_wsset(self.condition, self.tuples(), figure2_world_table)
        for source in result.variable_sources.values():
            assert source in ("j", "b")


class TestExample52:
    """Conditioning the Figure 9 database on the ws-tree/ws-set of Figure 3."""

    def tuples(self):
        return [
            ("a1", WSDescriptor({"y": 2, "u": 1})),
            ("a2", WSDescriptor({"u": 1, "v": 2})),
        ]

    def test_confidence_matches_example_47(self, figure3_wsset, figure3_world_table):
        result = condition_wsset(figure3_wsset, self.tuples(), figure3_world_table)
        assert result.confidence == pytest.approx(0.7578)

    def test_posterior_marginals_match_brute_force(
        self, figure3_wsset, figure3_world_table
    ):
        result = condition_wsset(figure3_wsset, self.tuples(), figure3_world_table)
        expected = brute_force_tuple_marginals(
            figure3_wsset, self.tuples(), figure3_world_table
        )
        actual = posterior_tuple_marginals(result, self.tuples(), figure3_world_table)
        for tag in ("a1", "a2"):
            assert actual[tag] == pytest.approx(expected[tag]), tag

    def test_disabling_pruning_does_not_change_semantics(
        self, figure3_wsset, figure3_world_table
    ):
        pruned = condition_wsset(figure3_wsset, self.tuples(), figure3_world_table)
        unpruned = condition_wsset(
            figure3_wsset, self.tuples(), figure3_world_table, prune_unrelated=False
        )
        assert unpruned.confidence == pytest.approx(pruned.confidence)
        expected = posterior_tuple_marginals(pruned, self.tuples(), figure3_world_table)
        actual = posterior_tuple_marginals(unpruned, self.tuples(), figure3_world_table)
        for tag in expected:
            assert actual[tag] == pytest.approx(expected[tag]), tag

    def test_literal_figure8_rule_reproduces_paper_output_but_breaks_theorem_53(
        self, figure3_wsset, figure3_world_table
    ):
        """Reproduction finding: the printed ⊗-rule of Figure 8 is unsound.

        The literal Figure 8 oracle produces exactly the U' of the paper's
        Example 5.2 (up to the rule-2/3 simplifications),
        but the induced posterior marginal of tuple ``a1`` is ≈ 0.689 whereas
        the true conditional probability is ≈ 0.466 — so the default engine
        intentionally deviates from Figure 8 here (see the module docstring of
        ``repro.core.conditioning``).
        """
        literal = condition_literal(
            figure3_wsset,
            self.tuples(),
            figure3_world_table,
            prune_unrelated=False,
        )
        assert literal.confidence == pytest.approx(0.7578)
        marginals = posterior_tuple_marginals(
            literal, self.tuples(), figure3_world_table
        )
        expected = brute_force_tuple_marginals(
            figure3_wsset, self.tuples(), figure3_world_table
        )
        assert marginals["a1"] == pytest.approx(0.689, abs=1e-3)
        assert expected["a1"] == pytest.approx(0.4656, abs=1e-3)
        # The default (sound) engine matches the ground truth instead.
        sound = condition_wsset(figure3_wsset, self.tuples(), figure3_world_table)
        sound_marginals = posterior_tuple_marginals(
            sound, self.tuples(), figure3_world_table
        )
        assert sound_marginals["a1"] == pytest.approx(expected["a1"])

    def test_delta_w_weights_follow_figure9(self, figure3_wsset, figure3_world_table):
        """The x-renormalisation of Figure 9: x'→1 gets .1/.308, x'→2 gets .208/.308.

        The ΔW weights of Figure 9 arise from the paper's literal recursion, so
        this test runs the literal Figure 8 oracle.
        """
        result = condition_literal(
            figure3_wsset,
            self.tuples(),
            figure3_world_table,
            prune_unrelated=False,
            drop_singleton_new_variables=False,
            merge_equal_new_variables=False,
        )
        by_source = {}
        for variable, source in result.variable_sources.items():
            by_source.setdefault(source, []).append(variable)
        assert "x" in by_source
        x_prime = by_source["x"][0]
        distribution = result.delta_world_table.distribution(x_prime)
        assert distribution[1] == pytest.approx(0.1 / 0.308)
        assert distribution[2] == pytest.approx(0.208 / 0.308)
        # The u-renormalisation: u'→1 gets .35/.65, u'→2 gets .3/.65.
        u_prime = by_source["u"][0]
        u_distribution = result.delta_world_table.distribution(u_prime)
        assert u_distribution[1] == pytest.approx(0.35 / 0.65)
        assert u_distribution[2] == pytest.approx(0.3 / 0.65)


class TestEdgeCasesAndSimplifications:
    def test_empty_condition_raises(self, figure2_world_table):
        with pytest.raises(ZeroProbabilityConditionError):
            condition_wsset(WSSet.empty(), [], figure2_world_table)

    def test_zero_probability_condition_raises(self):
        w = WorldTable()
        w.add_variable("x", {1: 0.0, 2: 1.0})
        with pytest.raises(ZeroProbabilityConditionError):
            condition_wsset(WSSet([{"x": 1}]), [], w)

    def test_universal_condition_is_identity(self, figure2_world_table):
        tuples = [("t", WSDescriptor({"j": 1}))]
        result = condition_wsset(WSSet.universal(), tuples, figure2_world_table)
        assert result.confidence == pytest.approx(1.0)
        assert result.rewritten["t"] == [WSDescriptor({"j": 1})]
        assert len(result.delta_world_table) == 0

    def test_tuple_absent_from_every_surviving_world_is_dropped(
        self, figure2_world_table
    ):
        condition = WSSet([{"j": 1}])
        tuples = [("gone", WSDescriptor({"j": 7})), ("kept", WSDescriptor({"b": 4}))]
        result = condition_wsset(condition, tuples, figure2_world_table)
        assert result.rewritten["gone"] == []
        assert result.rewritten["kept"] != []

    def test_singleton_new_variables_are_dropped_by_rule_2(self, figure2_world_table):
        # Conditioning on {j→1}: only one alternative of j survives, so no new
        # variable is needed at all (its weight would be one).
        condition = WSSet([{"j": 1}])
        tuples = [("t", WSDescriptor({"j": 1, "b": 4}))]
        result = condition_wsset(condition, tuples, figure2_world_table)
        assert len(result.delta_world_table) == 0
        assert result.rewritten["t"] == [WSDescriptor({"b": 4})]

    def test_rule_2_disabled_keeps_singleton_variable(self, figure2_world_table):
        condition = WSSet([{"j": 1}])
        tuples = [("t", WSDescriptor({"j": 1, "b": 4}))]
        result = condition_wsset(
            condition, tuples, figure2_world_table, drop_singleton_new_variables=False
        )
        assert len(result.delta_world_table) == 1
        (variable,) = result.delta_world_table.variables
        assert result.delta_world_table.distribution(variable)[1] == pytest.approx(1.0)

    def test_rule_3_merges_identical_new_variables(self):
        # Two independent components both eliminate variable x... not possible
        # (a variable lives in one component), so exercise rule 3 through two
        # branches of an outer variable that renormalise y identically.
        w = WorldTable()
        w.add_variable("x", {1: 0.5, 2: 0.5})
        w.add_variable("y", {1: 0.3, 2: 0.7})
        w.add_variable("z", {1: 0.6, 2: 0.4})
        condition = WSSet([{"x": 1, "y": 1}, {"x": 2, "y": 1}, {"z": 1}])
        tuples = [("t", WSDescriptor({"y": 1}))]
        merged = condition_wsset(condition, tuples, w, ExactConfig.ve())
        unmerged = condition_wsset(
            condition, tuples, w, ExactConfig.ve(), merge_equal_new_variables=False
        )
        assert len(merged.delta_world_table) <= len(unmerged.delta_world_table)
        # Semantics are unchanged either way.
        expected = brute_force_tuple_marginals(condition, tuples, w)
        for result in (merged, unmerged):
            actual = posterior_tuple_marginals(result, tuples, w)
            assert actual["t"] == pytest.approx(expected["t"])

    def test_conditioned_world_table_restricts_to_used_variables(
        self, figure2_world_table
    ):
        condition = WSSet([{"j": 1}, {"j": 7, "b": 4}])
        tuples = [("t", WSDescriptor({"b": 4}))]
        result = condition_wsset(condition, tuples, figure2_world_table)
        used = set()
        for descriptors in result.rewritten.values():
            for descriptor in descriptors:
                used.update(descriptor.variables)
        combined = conditioned_world_table(figure2_world_table, result, used)
        assert set(combined.variables) == used


class TestPosteriorProbabilityFormulation:
    def test_matches_conditional_probability(self, figure2_world_table):
        event = WSSet([{"b": 4}])
        condition = WSSet([{"j": 1}, {"j": 7, "b": 4}])
        assert posterior_probability(
            event, condition, figure2_world_table
        ) == pytest.approx(0.3 / 0.44)

    def test_zero_condition_raises(self, figure2_world_table):
        with pytest.raises(ZeroProbabilityConditionError):
            posterior_probability(
                WSSet([{"j": 1}]), WSSet.empty(), figure2_world_table
            )


class TestRandomisedCorrectness:
    """Theorem 5.3 on random instances, via tuple marginals and total mass."""

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("use_partitioning", [True, False])
    def test_posterior_marginals(self, seed, use_partitioning):
        rng = random.Random(7000 + seed)
        world_table = random_world_table(rng, num_variables=4, max_domain_size=3)
        condition = random_wsset(rng, world_table, num_descriptors=3, max_length=2)
        tuples = [
            (f"t{i}", descriptor)
            for i, descriptor in enumerate(
                random_wsset(rng, world_table, num_descriptors=4, max_length=2)
            )
        ]
        config = ExactConfig(use_independent_partitioning=use_partitioning)
        try:
            result = condition_wsset(condition, tuples, world_table, config)
        except ZeroProbabilityConditionError:
            pytest.skip("sampled an unsatisfiable condition")
        expected = brute_force_tuple_marginals(condition, tuples, world_table)
        actual = posterior_tuple_marginals(result, tuples, world_table)
        for tag in expected:
            assert actual[tag] == pytest.approx(expected[tag], abs=1e-9), tag

    @pytest.mark.parametrize("seed", range(10))
    def test_condition_has_posterior_probability_one(self, seed):
        rng = random.Random(9000 + seed)
        world_table = random_world_table(rng, num_variables=4, max_domain_size=3)
        condition = random_wsset(rng, world_table, num_descriptors=3, max_length=2)
        tuples = [(i, descriptor) for i, descriptor in enumerate(condition)]
        result = condition_wsset(condition, tuples, world_table)
        combined = conditioned_world_table(world_table, result)
        rewritten_condition = WSSet(
            descriptor
            for descriptors in result.rewritten.values()
            for descriptor in descriptors
        )
        assert probability(rewritten_condition, combined) == pytest.approx(1.0)


class TestFigure8Oracle:
    """The literal oracle differs from the engine only in its ⊗-rule."""

    @staticmethod
    def case(seed):
        rng = random.Random(11000 + seed)
        world_table = random_world_table(rng, num_variables=5, max_domain_size=3)
        condition = random_wsset(rng, world_table, num_descriptors=4, max_length=2)
        tuples = [
            (f"t{i}", descriptor)
            for i, descriptor in enumerate(
                random_wsset(rng, world_table, num_descriptors=4, max_length=2)
            )
        ]
        return world_table, condition, tuples

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_confidence_matches_engine(self, seed):
        # The ⊗-rule changes how tuples are rewritten, not P(condition).
        world_table, condition, tuples = self.case(seed)
        try:
            sound = condition_wsset(
                condition, tuples, world_table, prune_unrelated=False
            )
        except ZeroProbabilityConditionError:
            pytest.skip("sampled an unsatisfiable condition")
        literal = condition_literal(
            condition, tuples, world_table, prune_unrelated=False
        )
        assert literal.confidence == pytest.approx(sound.confidence, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_without_independent_partitioning_is_sound(self, seed):
        # Under plain VE there are no ⊗-nodes, so the printed recursion obeys
        # Theorem 5.3 like the engine does.
        world_table, condition, tuples = self.case(seed)
        try:
            result = condition_literal(
                condition, tuples, world_table, ExactConfig.ve()
            )
        except ZeroProbabilityConditionError:
            pytest.skip("sampled an unsatisfiable condition")
        expected = brute_force_tuple_marginals(condition, tuples, world_table)
        actual = posterior_tuple_marginals(result, tuples, world_table)
        for tag in expected:
            assert actual[tag] == pytest.approx(expected[tag], abs=1e-9), tag
