"""The ws-tree the engine builds (Figure 4, Definition 4.1, Theorem 4.4).

The engine's decomposition is recorded as a :class:`~repro.circuit.circuit.
Circuit`; these tests read the recorded circuit back as a ws-set
(:func:`circuit_wsset.circuit_wsset`, which also asserts Definition 4.1) and
check that it denotes exactly the worlds of the input ws-set.  The shared
budget guard and the plain-dict helpers of the Figure 8 oracle are tested
here too.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.circuit.circuit import CONST, PROD, SUM
from repro.core.bruteforce import enumerate_worlds
from repro.core.decompose import Budget
from repro.core.interned import InternedEngine
from repro.core.probability import ExactConfig
from repro.core.wsset import WSSet
from repro.errors import BudgetExceededError
from repro.workloads.random_instances import random_world_table, random_wsset

from circuit_wsset import circuit_wsset, record
from figure8_oracle import (
    connected_components,
    deduplicate,
    remove_subsumed,
    split_on_variable,
    to_internal,
)

HEURISTICS = ("minlog", "minmax", "frequency")
INDVE_SEEDS = range(12)
VE_SEEDS = range(1000, 1006)


def worlds_of(ws_set: WSSet, world_table) -> set:
    return {
        tuple(sorted(world.items()))
        for world, _ in enumerate_worlds(world_table)
        if ws_set.is_satisfied_by(world)
    }


def assert_represents(circuit, ws_set, world_table) -> None:
    """Theorem 4.4: the recorded ws-tree denotes exactly the input's worlds."""
    expected = worlds_of(ws_set, world_table)
    assert worlds_of(circuit_wsset(circuit), world_table) == expected


def random_instance(seed: int):
    """Six variables and twelve descriptors: above the closed-form limit."""
    rng = random.Random(seed)
    world_table = random_world_table(rng, num_variables=6, max_domain_size=3)
    ws_set = random_wsset(rng, world_table, num_descriptors=12, max_length=3)
    return world_table, ws_set


class TestBaseCases:
    def test_empty_wsset_gives_bottom(self, figure3_world_table):
        circuit = record(WSSet.empty(), figure3_world_table, ExactConfig())
        assert circuit.nodes[circuit.root] == (CONST, 0.0)
        assert len(circuit_wsset(circuit)) == 0

    def test_universal_wsset_gives_leaf(self, figure3_world_table):
        circuit = record(WSSet.universal(), figure3_world_table, ExactConfig())
        assert circuit.nodes[circuit.root] == (CONST, 1.0)
        assert circuit_wsset(circuit) == WSSet.universal()

    def test_wsset_containing_empty_descriptor_gives_leaf(self, figure3_world_table):
        circuit = record(WSSet([{"x": 1}, {}]), figure3_world_table, ExactConfig())
        assert circuit.nodes[circuit.root] == (CONST, 1.0)


class TestFigure3:
    def test_circuit_is_equivalent_to_input(self, figure3_wsset, figure3_world_table):
        circuit = record(figure3_wsset, figure3_world_table, ExactConfig())
        assert_represents(circuit, figure3_wsset, figure3_world_table)

    def test_root_splits_into_two_components(self, figure3_wsset, figure3_world_table):
        """S splits into {x,y,z}-descriptors and {u,v}-descriptors (Example 4.3)."""
        engine = InternedEngine(figure3_world_table, ExactConfig())
        components = engine.components_of(engine.simplified(figure3_wsset))
        variables = [
            {
                engine.space.unpack(packed)[0]
                for descriptor in component
                for packed in descriptor
            }
            for component in components
        ]
        assert variables == [{"x", "y", "z"}, {"u", "v"}]

    def test_probability_of_circuit_matches_example_47(
        self, figure3_wsset, figure3_world_table
    ):
        circuit = record(figure3_wsset, figure3_world_table, ExactConfig())
        assert circuit.evaluate() == pytest.approx(0.7578)

    def test_ve_only_circuit_is_still_equivalent(
        self, figure3_wsset, figure3_world_table
    ):
        circuit = record(figure3_wsset, figure3_world_table, ExactConfig.ve())
        assert_represents(circuit, figure3_wsset, figure3_world_table)
        assert circuit.evaluate() == pytest.approx(0.7578)


class TestHelpers:
    """The plain-dict helpers the Figure 8 oracle runs on."""

    def test_to_internal_and_deduplicate(self):
        internal = to_internal(WSSet([{"x": 1}, {"x": 1}, {"y": 2}]))
        assert deduplicate(internal + [{"x": 1}]) == [{"x": 1}, {"y": 2}]

    def test_remove_subsumed(self):
        descriptors = [{"x": 1}, {"x": 1, "y": 2}, {"z": 3}]
        assert remove_subsumed(descriptors) == [{"x": 1}, {"z": 3}]

    def test_remove_subsumed_keeps_duplicates_once(self):
        descriptors = [{"x": 1}, {"x": 1}]
        assert remove_subsumed(descriptors) == [{"x": 1}]

    def test_remove_subsumed_first_occurrence_wins_among_duplicates(self):
        first = {"x": 1, "y": 2}
        second = {"y": 2, "x": 1}  # equal as an assignment set
        other = {"z": 1}
        result = remove_subsumed([first, other, second])
        assert result == [first, other]
        assert result[0] is first  # identity: the *first* occurrence survives

    def test_remove_subsumed_preserves_input_order(self):
        descriptors = [{"z": 3}, {"x": 1, "y": 2}, {"x": 1}, {"w": 1, "z": 3}]
        assert remove_subsumed(descriptors) == [{"z": 3}, {"x": 1}]

    @pytest.mark.parametrize("seed", range(25))
    def test_remove_subsumed_matches_quadratic_reference(self, seed):
        """The size-sorted pass agrees with the original all-pairs definition."""

        def reference(descriptors):
            items = [set(d.items()) for d in descriptors]
            kept = []
            for i, candidate in enumerate(items):
                subsumed = any(
                    i != j and other <= candidate and (other < candidate or j < i)
                    for j, other in enumerate(items)
                )
                if not subsumed:
                    kept.append(descriptors[i])
            return kept

        rng = random.Random(3100 + seed)
        variables = ["a", "b", "c", "d"]
        descriptors = []
        for _ in range(rng.randint(0, 10)):
            chosen = rng.sample(variables, rng.randint(1, 3))
            descriptors.append({v: rng.randint(0, 1) for v in chosen})
        assert remove_subsumed(descriptors) == reference(descriptors)

    def test_connected_components(self):
        descriptors = [{"x": 1, "y": 2}, {"y": 1}, {"z": 3}, {"w": 1, "q": 2}]
        components = connected_components(descriptors)
        assert components == [
            [{"x": 1, "y": 2}, {"y": 1}],
            [{"z": 3}],
            [{"w": 1, "q": 2}],
        ]

    def test_split_on_variable(self):
        descriptors = [{"x": 1, "y": 2}, {"x": 2}, {"z": 3}]
        by_value, unmentioned = split_on_variable(descriptors, "x")
        assert by_value == {1: [{"y": 2}], 2: [{}]}
        assert unmentioned == [{"z": 3}]


class TestBudget:
    def test_budget_limits_recording(self):
        world_table, ws_set = random_instance(1)
        with pytest.raises(BudgetExceededError):
            record(ws_set, world_table, ExactConfig(), Budget(max_calls=2))

    def test_budget_allows_enough_calls(self):
        world_table, ws_set = random_instance(1)
        circuit = record(ws_set, world_table, ExactConfig(), Budget(max_calls=10_000))
        expected = InternedEngine(world_table, ExactConfig()).compute_wsset(ws_set)
        assert circuit.evaluate() == expected

    def test_time_limit_checked_on_first_call(self):
        """The wall clock is enforced from the very first tick, not call 256."""
        budget = Budget(max_calls=100_000, time_limit=1e-9)
        time.sleep(0.005)
        with pytest.raises(BudgetExceededError):
            budget.tick()

    def test_time_limit_checked_every_call_without_max_calls(self):
        budget = Budget(time_limit=0.2)
        budget.tick()  # within the (comfortably large) limit
        time.sleep(0.25)
        # Far from a multiple of 256, but max_calls is unset: still enforced.
        with pytest.raises(BudgetExceededError):
            budget.tick()

    def test_tight_time_limit_fires_while_recording(
        self, figure3_wsset, figure3_world_table
    ):
        with pytest.raises(BudgetExceededError):
            record(
                figure3_wsset,
                figure3_world_table,
                ExactConfig(),
                Budget(time_limit=1e-12),
            )


class TestRandomisedEquivalence:
    """Theorem 4.4 on random instances: the circuit represents the same worlds."""

    @pytest.mark.parametrize("seed", INDVE_SEEDS)
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_circuit_equivalence(self, seed, heuristic):
        world_table, ws_set = random_instance(seed)
        circuit = record(ws_set, world_table, ExactConfig(heuristic=heuristic))
        assert_represents(circuit, ws_set, world_table)

    @pytest.mark.parametrize("seed", VE_SEEDS)
    def test_circuit_equivalence_without_partitioning(self, seed):
        world_table, ws_set = random_instance(seed)
        circuit = record(ws_set, world_table, ExactConfig.ve())
        assert_represents(circuit, ws_set, world_table)

    def test_the_cases_record_sum_and_prod_nodes(self):
        """The checks above reach ⊕ and ⊗ nodes, not only closed forms."""
        cases = [
            (seed, ExactConfig(heuristic=heuristic))
            for seed in INDVE_SEEDS
            for heuristic in HEURISTICS
        ]
        cases += [(seed, ExactConfig.ve()) for seed in VE_SEEDS]
        kinds = set()
        for seed, config in cases:
            world_table, ws_set = random_instance(seed)
            kinds.update(node[0] for node in record(ws_set, world_table, config).nodes)
        assert {SUM, PROD} <= kinds
