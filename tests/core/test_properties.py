"""Property-based tests (hypothesis) for the core invariants of the paper.

Strategies generate small random world tables, ws-sets and tuple descriptors;
the properties assert the cross-algorithm agreements that the paper's theorems
promise: Proposition 3.4 (set-operation semantics), Theorem 4.4 (the recorded
ws-tree is equivalent to its ws-set), Figure 7 / Theorem 6.3 (exact probability
computation), and Theorem 5.3 (conditioning preserves the renormalised
instance distribution).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bruteforce import brute_force_probability, enumerate_worlds
from repro.core.conditioning import condition_wsset, conditioned_world_table
from repro.core.descriptors import WSDescriptor
from repro.core.elimination import descriptor_elimination_probability, mutex_normal_form
from repro.core.probability import ExactConfig, probability
from repro.core.wsset import WSSet
from repro.db.world_table import WorldTable
from repro.errors import ZeroProbabilityConditionError

from circuit_wsset import circuit_wsset, record

MAX_EXAMPLES = 60


@st.composite
def world_tables(draw, min_variables: int = 2, max_variables: int = 4):
    """A small random world table with 2-3 alternatives per variable."""
    count = draw(st.integers(min_variables, max_variables))
    table = WorldTable()
    for index in range(count):
        domain_size = draw(st.integers(2, 3))
        weights = [draw(st.floats(0.05, 1.0)) for _ in range(domain_size)]
        table.add_variable(
            f"v{index}", {value: weight for value, weight in enumerate(weights)},
            normalize=True,
        )
    return table


@st.composite
def wssets(
    draw,
    table: WorldTable,
    max_descriptors: int = 5,
    allow_empty: bool = False,
    min_descriptors: int = 1,
):
    """A random ws-set over ``table``."""
    variables = list(table.variables)
    descriptor_count = draw(
        st.integers(0 if allow_empty else min_descriptors, max_descriptors)
    )
    descriptors = []
    for _ in range(descriptor_count):
        length = draw(st.integers(1, min(3, len(variables))))
        chosen = draw(
            st.lists(
                st.sampled_from(variables),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        descriptors.append(
            WSDescriptor(
                {v: draw(st.sampled_from(list(table.domain(v)))) for v in chosen}
            )
        )
    return WSSet(descriptors)


@st.composite
def instances(draw):
    table = draw(world_tables())
    ws_set = draw(wssets(table))
    return table, ws_set


def worlds_of(ws_set: WSSet, table: WorldTable) -> set:
    return {
        tuple(sorted(world.items()))
        for world, _ in enumerate_worlds(table)
        if ws_set.is_satisfied_by(world)
    }


class TestSetOperationProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_union_intersect_difference_semantics(self, data):
        table = data.draw(world_tables())
        s1 = data.draw(wssets(table))
        s2 = data.draw(wssets(table))
        w1, w2 = worlds_of(s1, table), worlds_of(s2, table)
        assert worlds_of(s1.union(s2), table) == w1 | w2
        assert worlds_of(s1.intersect(s2), table) == w1 & w2
        assert worlds_of(s1.difference(s2, table), table) == w1 - w2

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_complement_partitions_the_world_set(self, data):
        table = data.draw(world_tables())
        ws_set = data.draw(wssets(table))
        complement = ws_set.complement(table)
        assert probability(ws_set, table) + probability(
            complement, table
        ) == pytest.approx(1.0)
        assert worlds_of(ws_set, table) & worlds_of(complement, table) == set()

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_subsumption_removal_preserves_semantics(self, data):
        table = data.draw(world_tables())
        ws_set = data.draw(wssets(table))
        assert worlds_of(ws_set.without_subsumed(), table) == worlds_of(ws_set, table)


class TestExactProbabilityProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_all_exact_algorithms_agree_with_brute_force(self, data):
        table = data.draw(world_tables())
        ws_set = data.draw(wssets(table))
        expected = brute_force_probability(ws_set, table)
        assert probability(ws_set, table) == pytest.approx(expected)
        assert probability(ws_set, table, ExactConfig.ve("minmax")) == pytest.approx(expected)
        assert descriptor_elimination_probability(ws_set, table) == pytest.approx(
            expected
        )

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_recorded_circuit_is_equivalent_and_valid(self, data):
        # Five descriptors or fewer always record one closed-form node.
        table = data.draw(world_tables(min_variables=4, max_variables=6))
        ws_set = data.draw(wssets(table, max_descriptors=12, min_descriptors=6))
        circuit = record(ws_set, table, ExactConfig())
        assert circuit.evaluate() == pytest.approx(
            brute_force_probability(ws_set, table)
        )
        assert worlds_of(circuit_wsset(circuit), table) == worlds_of(ws_set, table)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_mutex_normal_form_property(self, data):
        table = data.draw(world_tables())
        ws_set = data.draw(wssets(table, max_descriptors=4))
        normal_form = mutex_normal_form(ws_set, table)
        assert normal_form.is_pairwise_mutex()
        assert worlds_of(normal_form, table) == worlds_of(ws_set, table)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_probability_is_monotone_under_union(self, data):
        table = data.draw(world_tables())
        s1 = data.draw(wssets(table))
        s2 = data.draw(wssets(table))
        union_probability = probability(s1.union(s2), table)
        assert union_probability >= probability(s1, table) - 1e-9
        assert (
            union_probability <= probability(s1, table) + probability(s2, table) + 1e-9
        )


class TestConditioningProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_theorem_53_tuple_marginals(self, data):
        table = data.draw(world_tables())
        condition = data.draw(wssets(table, max_descriptors=3))
        tuple_set = data.draw(wssets(table, max_descriptors=3))
        tuples = [(index, descriptor) for index, descriptor in enumerate(tuple_set)]
        try:
            result = condition_wsset(condition, tuples, table)
        except ZeroProbabilityConditionError:
            return
        combined = conditioned_world_table(table, result)

        condition_mass = brute_force_probability(condition, table)
        assert result.confidence == pytest.approx(condition_mass)

        for tag, descriptor in tuples:
            joint = brute_force_probability(
                WSSet([descriptor]).intersect(condition), table
            )
            expected = joint / condition_mass
            rewritten = WSSet(result.rewritten.get(tag, ()))
            actual = probability(rewritten, combined) if len(rewritten) else 0.0
            assert actual == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_new_variables_are_normalised(self, data):
        table = data.draw(world_tables())
        condition = data.draw(wssets(table, max_descriptors=3))
        try:
            result = condition_wsset(condition, [], table)
        except ZeroProbabilityConditionError:
            return
        for variable in result.delta_world_table.variables:
            weights = result.delta_world_table.distribution(variable).values()
            assert sum(weights) == pytest.approx(1.0)
            assert all(weight >= 0 for weight in weights)
