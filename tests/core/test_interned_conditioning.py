"""Oracle tests for the interned conditioning recursion.

The central guarantee: on randomized instances the frame-stack engine and
brute-force world enumeration agree on the condition confidence and on every
posterior tuple marginal to 1e-9.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bruteforce import (
    brute_force_posterior_worlds,
    brute_force_probability,
)
from repro.core.conditioning import (
    _InternedConditioningEngine,
    condition_wsset,
    conditioned_world_table,
)
from repro.core.descriptors import WSDescriptor
from repro.core.probability import probability
from repro.core.wsset import WSSet
from repro.db.world_table import WorldTable
from repro.errors import ZeroProbabilityConditionError
from repro.workloads.hard import HardCaseParameters, generate_hard_instance
from repro.workloads.random_instances import random_world_table, random_wsset


def posterior_tuple_marginals(result, tuples, world_table):
    """Marginal presence probability of each tuple tag in the posterior."""
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


def random_case(seed, *, num_variables=5, condition_size=4, tuple_count=5):
    rng = random.Random(seed)
    world_table = random_world_table(
        rng, num_variables=num_variables, max_domain_size=3
    )
    condition = random_wsset(
        rng, world_table, num_descriptors=condition_size, max_length=3
    )
    tuples = [
        (f"t{i}", descriptor)
        for i, descriptor in enumerate(
            random_wsset(rng, world_table, num_descriptors=tuple_count, max_length=2)
        )
    ]
    return world_table, condition, tuples


class TestPaperExamplesInterned:
    """The introduction's SSN example through the interned implementation."""

    condition = WSSet([{"j": 1}, {"j": 7, "b": 4}])

    def tuples(self):
        return [
            ("john1", WSDescriptor({"j": 1})),
            ("john7", WSDescriptor({"j": 7})),
            ("bill4", WSDescriptor({"b": 4})),
            ("bill7", WSDescriptor({"b": 7})),
        ]

    def test_confidence_and_marginals(self, figure2_world_table):
        result = condition_wsset(
            self.condition, self.tuples(), figure2_world_table
        )
        assert result.confidence == pytest.approx(0.44)
        marginals = posterior_tuple_marginals(
            result, self.tuples(), figure2_world_table
        )
        assert marginals["bill4"] == pytest.approx(0.3 / 0.44)
        assert marginals["john1"] == pytest.approx(0.2 / 0.44)

    def test_delta_distributions_sum_to_one(self, figure2_world_table):
        result = condition_wsset(
            self.condition, self.tuples(), figure2_world_table
        )
        for variable in result.delta_world_table.variables:
            distribution = result.delta_world_table.distribution(variable)
            assert sum(distribution.values()) == pytest.approx(1.0)
            assert result.variable_sources[variable] in ("j", "b")


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("prune", [True, False])
    def test_matches_brute_force(self, seed, prune):
        world_table, condition, tuples = random_case(41000 + seed)
        try:
            interned = condition_wsset(
                world_table=world_table,
                condition=condition,
                tuples=tuples,
                prune_unrelated=prune,
            )
        except ZeroProbabilityConditionError:
            pytest.skip("sampled an unsatisfiable condition")
        assert interned.confidence == pytest.approx(
            brute_force_probability(condition, world_table), abs=1e-12
        )
        expected = brute_force_tuple_marginals(condition, tuples, world_table)
        interned_marginals = posterior_tuple_marginals(interned, tuples, world_table)
        for tag, value in expected.items():
            assert interned_marginals[tag] == pytest.approx(value, abs=1e-9), tag

    @pytest.mark.parametrize("seed", range(10))
    def test_posterior_condition_probability_is_one(self, seed):
        world_table, condition, _ = random_case(47000 + seed)
        tuples = [(i, descriptor) for i, descriptor in enumerate(condition)]
        try:
            result = condition_wsset(condition, tuples, world_table)
        except ZeroProbabilityConditionError:
            pytest.skip("sampled an unsatisfiable condition")
        combined = conditioned_world_table(world_table, result)
        rewritten_condition = WSSet(
            descriptor
            for descriptors in result.rewritten.values()
            for descriptor in descriptors
        )
        assert probability(rewritten_condition, combined) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_simplification_rules_agree_across_engines(self, seed):
        world_table, condition, tuples = random_case(53000 + seed)
        for options in (
            {"drop_singleton_new_variables": False},
            {"merge_equal_new_variables": False},
            {"drop_singleton_new_variables": False, "merge_equal_new_variables": False},
        ):
            try:
                interned = condition_wsset(
                    condition, tuples, world_table, **options
                )
            except ZeroProbabilityConditionError:
                pytest.skip("sampled an unsatisfiable condition")
            expected = brute_force_tuple_marginals(condition, tuples, world_table)
            actual = posterior_tuple_marginals(interned, tuples, world_table)
            for tag, value in expected.items():
                assert actual[tag] == pytest.approx(value, abs=1e-9), (tag, options)


class TestInternedSpecifics:
    def test_alien_tuple_variables_pass_through(self, figure2_world_table):
        # A tuple referencing a variable the world table does not know rides
        # along unchanged (it can never meet an eliminated variable).
        condition = WSSet([{"j": 1}])
        tuples = [("t", WSDescriptor({"b": 4, "ghost": 9}))]
        result = condition_wsset(condition, tuples, figure2_world_table)
        (descriptor,) = result.rewritten["t"]
        assert descriptor.get("ghost") == 9
        assert descriptor.get("b") == 4

    def test_new_variable_names_skip_alien_tuple_variables(self):
        # ``x'`` occurs only in tuple descriptors, so the new variable derived
        # from ``x`` must not take that name: ``t`` keeps both assignments and
        # ``u`` is left as it was.
        world_table = WorldTable()
        world_table.add_variable("x", {1: 0.3, 2: 0.3, 3: 0.4})
        world_table.add_variable("y", {1: 0.5, 2: 0.5})
        condition = WSSet([{"x": 1}, {"x": 2, "y": 1}])
        tuples = [
            ("t", WSDescriptor({"x": 2, "x'": 9})),
            ("u", WSDescriptor({"x'": 9})),
        ]
        result = condition_wsset(condition, tuples, world_table)
        assert result.rewritten["t"] == [WSDescriptor({"x''": 2, "x'": 9})]
        assert result.rewritten["u"] == [WSDescriptor({"x'": 9})]
        assert result.variable_sources == {"x''": "x"}

    def test_memo_hits_share_new_variables(self, monkeypatch):
        # A hard instance conditioned on its own descriptors: the memo hits
        # reuse their subtrees' new variables, so the recursion allocates
        # exactly the 18 that rule 3 keeps (one per distinct source and
        # weights) instead of one per path of the expansion.
        instance = generate_hard_instance(
            HardCaseParameters(
                num_variables=200,
                alternatives=2,
                descriptor_length=2,
                num_descriptors=10,
                seed=0,
            )
        )
        calls = []
        fresh = _InternedConditioningEngine._fresh_variable

        def counted(engine, source_id):
            calls.append(source_id)
            return fresh(engine, source_id)

        monkeypatch.setattr(_InternedConditioningEngine, "_fresh_variable", counted)
        tuples = list(enumerate(instance.ws_set))
        result = condition_wsset(instance.ws_set, tuples, instance.world_table)
        assert result.stats.memo_hits > 0
        assert len(calls) == len(result.delta_world_table) == 18

    def test_out_of_domain_tuple_value_denotes_no_world(self, figure2_world_table):
        condition = WSSet([{"j": 1}])
        tuples = [("dead", WSDescriptor({"b": 99})), ("live", WSDescriptor({"b": 4}))]
        result = condition_wsset(condition, tuples, figure2_world_table)
        assert result.rewritten["dead"] == []
        assert result.rewritten["live"] != []

    def test_deep_elimination_spine_needs_no_recursion_limit(self):
        # One descriptor over 1200 variables forces a single-branch rewriting
        # spine much deeper than CPython's default recursion limit (1000);
        # the explicit frame stack absorbs it without touching the limit.
        count = 1200
        world_table = WorldTable()
        assignments = {}
        for index in range(count):
            world_table.add_variable(f"x{index}", {0: 0.9999, 1: 0.0001})
            assignments[f"x{index}"] = 0
        condition = WSSet([assignments])
        tuples = [("t", WSDescriptor(assignments))]
        result = condition_wsset(condition, tuples, world_table)
        assert result.confidence == pytest.approx(0.9999**count)
        assert result.stats.max_depth > 1000
        # Rule 2 strips every eliminated variable: the surviving descriptor
        # is the nullary one (the tuple is certain in the posterior).
        assert result.rewritten["t"] == [WSDescriptor({})]
