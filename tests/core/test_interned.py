"""Tests for the interned decomposition engine (integer packing, iterative core).

The central guarantee is agreement with the oracle: on random instances the
engine and brute-force world enumeration compute the same probability (within
1e-9), for INDVE and VE and every heuristic.  The unit tests additionally pin
the packed representation and the
interned counterparts of the shared ws-set helpers, and the oracle tests hold
the index-based ⊗-partitioning and subsumption passes to the quadratic scans
they replaced (kept here as reference implementations).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.bruteforce import brute_force_probability
from repro.core.components import simplify_descriptors, split_components
from repro.core.conditioning import condition_wsset, conditioned_world_table
from repro.core.decompose import kept_after_subsumption
from repro.core.descriptors import WSDescriptor
from repro.core.heuristics import Heuristic
from repro.core.interned import (
    CERTAIN,
    InternedEngine,
    InternedSpace,
    connected_components_interned,
    deduplicate_interned,
    remove_subsumed_interned,
    split_on_variable_interned,
)
from repro.core.probability import (
    ExactConfig,
    probability,
    probability_with_stats,
)
from repro.core.wsset import WSSet
from repro.db.world_table import WorldTable
from repro.errors import BudgetExceededError, UnknownVariableError
from repro.workloads.hard import HardCaseParameters, generate_hard_instance
from repro.workloads.random_instances import random_world_table, random_wsset

from figure8_oracle import connected_components, to_internal

ALL_HEURISTICS = repro.available_heuristics()


@pytest.fixture
def space(figure3_world_table) -> InternedSpace:
    return figure3_world_table.interned()


class TestInternedSpace:
    def test_pack_unpack_round_trip(self, figure3_world_table, space):
        for variable in figure3_world_table.variables:
            for value in figure3_world_table.domain(variable):
                packed = space.pack(variable, value)
                assert space.unpack(packed) == (variable, value)
                assert space.weight(packed) == figure3_world_table.probability(
                    variable, value
                )

    def test_packed_descriptors_are_sorted_tuples(self, space):
        interned = space.intern_items([("y", 1), ("x", 2)])
        assert interned == tuple(sorted(interned))
        assert space.externalize(interned) == {"x": 2, "y": 1}

    def test_unknown_variable_raises(self, space):
        with pytest.raises(UnknownVariableError):
            space.intern_items([("nope", 1)])

    def test_out_of_domain_value_marks_descriptor_unsatisfiable(self, space):
        assert space.intern_items([("x", 99)]) is None
        # ... and such descriptors are dropped from interned ws-sets, which
        # leaves the probability unchanged (no world satisfies them).
        assert space.intern_descriptors([{"x": 99}, {"x": 1}]) == [
            space.intern_items([("x", 1)])
        ]

    def test_space_is_cached_and_invalidated_on_mutation(self):
        table = WorldTable()
        table.add_variable("a", {0: 0.5, 1: 0.5})
        first = table.interned()
        assert table.interned() is first
        table.add_variable("b", {0: 0.3, 1: 0.7})
        second = table.interned()
        assert second is not first
        assert second.variable_ids.keys() == {"a", "b"}

    def test_domain_size_by_id(self, figure3_world_table, space):
        for variable in figure3_world_table.variables:
            variable_id = space.variable_ids[variable]
            assert space.domain_size(variable_id) == figure3_world_table.domain_size(
                variable
            )


class TestInternedHelpers:
    def test_deduplicate(self, space):
        d1 = space.intern_items([("x", 1)])
        d2 = space.intern_items([("y", 2)])
        assert deduplicate_interned([d1, d2, d1]) == [d1, d2]

    def test_remove_subsumed(self, space):
        small = space.intern_items([("x", 1)])
        large = space.intern_items([("x", 1), ("y", 2)])
        other = space.intern_items([("z", 1)])
        assert remove_subsumed_interned([large, small, other]) == [small, other]

    def test_remove_subsumed_first_duplicate_wins(self, space):
        a = space.intern_items([("x", 1), ("y", 2)])
        b = space.intern_items([("y", 2), ("x", 1)])
        assert a == b  # sorting canonicalises the packing
        assert remove_subsumed_interned([a, b]) == [a]

    def test_connected_components(self, space):
        d1 = space.intern_items([("x", 1), ("y", 2)])
        d2 = space.intern_items([("y", 1)])
        d3 = space.intern_items([("u", 1), ("v", 2)])
        components = connected_components_interned([d1, d2, d3], space.shift)
        assert sorted(len(component) for component in components) == [1, 2]

    def test_connected_components_single(self, space):
        d1 = space.intern_items([("x", 1), ("y", 2)])
        d2 = space.intern_items([("y", 1)])
        descriptors = [d1, d2]
        assert connected_components_interned(descriptors, space.shift) == [descriptors]

    def test_split_on_variable(self, space):
        x_id = space.variable_ids["x"]
        d1 = space.intern_items([("x", 1), ("y", 2)])
        d2 = space.intern_items([("x", 2)])
        d3 = space.intern_items([("z", 1)])
        x1, x2, x3 = (space.value_ids[x_id][value] for value in (1, 2, 3))
        y2 = space.intern_items([("y", 2)])
        branches, unmentioned = split_on_variable_interned(
            [d1, d2, d3], x_id, space.shift, space.domain_size(x_id)
        )
        assert len(branches) == 3
        # {x -> 2} alone: the branch holds ∅, the shared certain marker.
        assert branches[x2] is CERTAIN
        # A mentioned value: S_{x->1} with the assignment removed, then T.
        assert branches[x1] == [y2, d3]
        # No descriptor mentions x -> 3: its branch is T, left to the caller.
        assert branches[x3] is None
        assert unmentioned == [d3]
        # A reduced descriptor already in T is not repeated.
        d4 = space.intern_items([("x", 1), ("z", 1)])
        branches, _ = split_on_variable_interned(
            [d1, d4, d3], x_id, space.shift, space.domain_size(x_id)
        )
        assert branches[x1] == [y2, d3]

    def test_count_occurrences(self, space):
        """Packed counts reach ``select_variable`` grouped per variable id."""
        seen = []

        class Recording(Heuristic):
            def select_variable(self, occurrences, descriptor_count, world_table):
                seen.append((occurrences, descriptor_count))
                return next(iter(occurrences))

        d1 = space.intern_items([("x", 1), ("y", 2)])
        d2 = space.intern_items([("x", 1)])
        counts = Counter(chain.from_iterable([d1, d2]))
        x_id, y_id = space.variable_ids["x"], space.variable_ids["y"]
        assert Recording().select_packed(counts, 2, space) == x_id
        assert seen == [
            (
                {
                    x_id: {space.value_ids[x_id][1]: 2},
                    y_id: {space.value_ids[y_id][2]: 1},
                },
                2,
            )
        ]
        # A lone candidate is returned without consulting the heuristic.
        assert Recording().select_packed(Counter(d2), 1, space) == x_id
        assert len(seen) == 1


class TestEngineBasics:
    def test_example_47_is_the_default_engine(self, figure3_wsset, figure3_world_table):
        assert probability(figure3_wsset, figure3_world_table) == pytest.approx(0.7578)

    def test_empty_and_universal_wssets(self, figure3_world_table):
        assert probability(WSSet.empty(), figure3_world_table) == 0.0
        assert probability(WSSet.universal(), figure3_world_table) == 1.0

    def test_deep_elimination_needs_no_recursion_limit(self):
        """A 1300-variable chain would overflow CPython's default recursion
        limit (1000) in a naive recursion; the iterative core does not
        recurse, so no ``sys.setrecursionlimit`` hack is involved."""
        table = WorldTable()
        count = 1300
        for index in range(count):
            table.add_variable(index, {0: 0.5, 1: 0.5})
        # One long chain of pairwise-overlapping descriptors: a single
        # connected component that forces one elimination per level.
        descriptors = [{i: 0, i + 1: 0} for i in range(count - 1)]
        ws_set = WSSet(descriptors)
        value = probability(ws_set, table, ExactConfig(heuristic="first"))
        assert value == pytest.approx(1.0)  # the union covers ~all worlds

    def test_budget_time_limit_fires(self):
        rng = random.Random(3)
        world_table = random_world_table(rng, num_variables=8, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=12, max_length=3)
        with pytest.raises(BudgetExceededError):
            probability(ws_set, world_table, ExactConfig(time_limit=1e-12))

    def test_engine_reuse_shares_the_memo_cache(self, figure3_world_table):
        engine = InternedEngine(figure3_world_table, ExactConfig())
        descriptors = [
            {"x": 1, "y": 1, "z": 1},
            {"x": 2, "y": 2, "z": 1},
            {"x": 3, "y": 1, "z": 2},
            {"x": 1, "y": 2, "z": 2},
            {"x": 2, "y": 1, "u": 1},
            {"x": 3, "y": 2, "u": 2},
        ]
        first = engine.compute(descriptors)
        filled = len(engine.cache)
        second = engine.compute(descriptors)
        assert first == pytest.approx(second)
        assert filled > 0
        assert engine.cache_hits > 0  # the second run reuses cached sub-ws-sets

    def test_probability_of_descriptors_matches_wsset_probability(
        self, figure3_wsset, figure3_world_table
    ):
        descriptors = [dict(d.items()) for d in figure3_wsset]
        engine = InternedEngine(figure3_world_table, ExactConfig())
        assert engine.compute(descriptors) == pytest.approx(
            probability(figure3_wsset, figure3_world_table)
        )


class TestCrossEngineAgreement:
    """Property test: every configuration == brute force (1e-9)."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("method", ["indve", "ve"])
    def test_random_instances_all_heuristics(self, seed, method):
        rng = random.Random(4200 + seed)
        world_table = random_world_table(rng, num_variables=6, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=8, max_length=3)
        expected = brute_force_probability(ws_set, world_table)
        use_ip = method == "indve"
        for heuristic in ALL_HEURISTICS:
            interned = probability(
                ws_set,
                world_table,
                ExactConfig(
                    use_independent_partitioning=use_ip, heuristic=heuristic
                ),
            )
            assert interned == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_memoization_does_not_change_results(self, seed):
        rng = random.Random(8800 + seed)
        world_table = random_world_table(rng, num_variables=6, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=8, max_length=3)
        expected = brute_force_probability(ws_set, world_table)
        for memoize in (True, False):
            value = probability(ws_set, world_table, ExactConfig(memoize=memoize))
            assert value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_subsumption_knobs_agree(self, seed):
        rng = random.Random(6600 + seed)
        world_table = random_world_table(rng, num_variables=5, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=7, max_length=3)
        expected = brute_force_probability(ws_set, world_table)
        for config in (
            ExactConfig(simplify_subsumed=False),
            ExactConfig(subsumption_every_step=True),
        ):
            assert probability(ws_set, world_table, config) == pytest.approx(
                expected, abs=1e-9
            )


class TestConditioningWithInternedDelegation:
    """Conditioning delegates confidence subproblems to one shared engine."""

    @pytest.mark.parametrize("seed", range(8))
    def test_conditioning_engines_agree(self, seed):
        rng = random.Random(9900 + seed)
        world_table = random_world_table(rng, num_variables=5, max_domain_size=3)
        condition = random_wsset(rng, world_table, num_descriptors=4, max_length=2)
        tuple_set = random_wsset(rng, world_table, num_descriptors=3, max_length=2)
        tuples = list(enumerate(tuple_set))
        condition_mass = brute_force_probability(condition, world_table)
        if condition_mass == 0.0:
            pytest.skip("zero-probability condition")
        result = condition_wsset(condition, tuples, world_table, ExactConfig())
        assert result.confidence == pytest.approx(condition_mass, abs=1e-9)
        combined = conditioned_world_table(world_table, result)
        for tag, descriptor in tuples:
            joint = brute_force_probability(
                WSSet([descriptor]).intersect(condition), world_table
            )
            rewritten = WSSet(result.rewritten.get(tag, ()))
            actual = probability(rewritten, combined) if len(rewritten) else 0.0
            assert actual == pytest.approx(joint / condition_mass, abs=1e-9)

    def test_delegate_engine_is_shared_across_subproblems(self, figure3_world_table):
        condition = WSSet([{"x": 1}, {"x": 2, "y": 1}, {"u": 1, "v": 1}, {"u": 2}])
        result = condition_wsset(
            condition, [("t", {"y": 2})], figure3_world_table, ExactConfig()
        )
        assert result.confidence == pytest.approx(
            brute_force_probability(condition, figure3_world_table)
        )


class TestStatsAndMemo:
    def test_interned_stats_count_nodes(self):
        world_table = WorldTable()
        for index in range(9):
            world_table.add_variable(index, {0: 0.5, 1: 0.5})
        # A connected 8-descriptor chain: too large for the closed form at the
        # root (forcing a ⊕-node) but small enough to end in closed forms.
        ws_set = WSSet([{i: 0, i + 1: 0} for i in range(8)])
        result = probability_with_stats(ws_set, world_table)
        assert result.stats.recursive_calls >= 1
        assert result.stats.variable_nodes >= 1
        assert result.stats.closed_form_nodes >= 1

    def test_memo_hits_on_repeated_subproblems(self):
        world_table = WorldTable()
        for name in ("a", "b", "c", "d", "e", "f", "g"):
            world_table.add_variable(name, {0: 0.5, 1: 0.5})
        # Both a-branches leave the identical residual problem over b..g.
        shared = [
            {"b": 0, "c": 0, "d": 0},
            {"c": 1, "d": 1, "e": 0},
            {"d": 0, "e": 1, "f": 0},
            {"e": 0, "f": 1, "g": 0},
            {"f": 0, "g": 1, "b": 1},
            {"g": 0, "b": 0, "c": 1},
        ]
        descriptors = [{"a": 0, **d} for d in shared] + [
            {"a": 1, **d} for d in shared
        ]
        ws_set = WSSet(descriptors)
        # The "first" heuristic eliminates `a` at the root, so both branches
        # reduce to exactly the same sub-ws-set: the second one must hit.
        engine = InternedEngine(world_table, ExactConfig(heuristic="first"))
        value = engine.compute_wsset(ws_set)
        assert value == pytest.approx(brute_force_probability(ws_set, world_table))
        assert engine.cache_hits > 0


# ----------------------------------------------------------------------
# Oracles: the scans the index-based passes replaced, verbatim
# ----------------------------------------------------------------------
ORACLE_SHIFT = 2


def scan_components(descriptors, shift):
    """The quadratic bitmask scan ``connected_components_interned`` used to be."""
    component_masks = []
    component_members = []
    live = 0
    for descriptor in descriptors:
        mask = 0
        for packed in descriptor:
            mask |= 1 << (packed >> shift)
        first = -1
        for index in range(len(component_masks)):
            if component_masks[index] & mask:
                if first < 0:
                    component_masks[index] |= mask
                    component_members[index].append(descriptor)
                    first = index
                else:
                    component_masks[first] |= component_masks[index]
                    component_members[first].extend(component_members[index])
                    component_masks[index] = 0
                    component_members[index] = None
                    live -= 1
        if first < 0:
            component_masks.append(mask)
            component_members.append([descriptor])
            live += 1
    if live == 1:
        return [descriptors]
    return [members for members in component_members if members]


def scan_kept_after_subsumption(items):
    """The quadratic pass ``kept_after_subsumption`` used to be."""
    order = sorted(range(len(items)), key=lambda index: (len(items[index]), index))
    kept = []
    kept_sets = []
    for index in order:
        candidate = items[index]
        for smaller in kept_sets:
            if smaller <= candidate:
                break
        else:
            kept.append(index)
            kept_sets.append(candidate)
    kept.sort()
    return kept


@st.composite
def assignment_lists(draw):
    """0-60 descriptors of 0-4 ``(variable id, value id)`` pairs over 3-200 variables.

    Few variables give dense, fusing ws-sets; many give sparse ones.  Repeats
    are drawn on purpose: duplicates and ``()`` are legal inputs of the scans.
    """
    variable_count = draw(st.integers(3, 200))
    descriptor = st.dictionaries(
        st.integers(0, variable_count - 1),
        st.integers(0, (1 << ORACLE_SHIFT) - 1),
        max_size=4,
    ).map(lambda assignments: tuple(sorted(assignments.items())))
    fresh = draw(st.lists(descriptor, max_size=50))
    repeats = draw(st.lists(st.sampled_from(fresh), max_size=10)) if fresh else []
    return draw(st.permutations(fresh + repeats))


def packed(assignments):
    return tuple((variable << ORACLE_SHIFT) | value for variable, value in assignments)


class TestPartitionOracles:
    @settings(max_examples=300, deadline=None)
    @given(assignment_lists())
    def test_components_equal_the_scan(self, assignments):
        descriptors = [packed(descriptor) for descriptor in assignments]
        expected = scan_components(descriptors, ORACLE_SHIFT)
        components = connected_components_interned(descriptors, ORACLE_SHIFT)
        # ``==`` on nested lists: slot order and member order included.
        assert components == expected
        if len(expected) == 1:
            assert components[0] is descriptors

    def test_components_fuse_order(self):
        a, b, c, d = (packed([(variable, 0)]) for variable in range(4))
        bridge = packed([(0, 1), (1, 1), (2, 1)])
        # The bridge lands in the lowest slot *before* slots 1 and 2 fuse in.
        assert connected_components_interned([a, b, c, d, bridge], ORACLE_SHIFT) == [
            [a, bridge, b, c],
            [d],
        ]
        # A slot that was fused away still routes its variables to the survivor.
        late = packed([(2, 2)])
        assert connected_components_interned(
            [a, b, c, d, bridge, late], ORACLE_SHIFT
        ) == [[a, bridge, b, c, late], [d]]

    @settings(max_examples=200, deadline=None)
    @given(assignment_lists())
    def test_split_components_equals_the_interned_image(self, assignments):
        descriptors = [WSDescriptor(descriptor) for descriptor in assignments]
        interned = [packed(descriptor) for descriptor in assignments]
        image = dict(zip(descriptors, interned))
        assert [
            [image[descriptor] for descriptor in component]
            for component in split_components(descriptors)
        ] == connected_components_interned(interned, ORACLE_SHIFT)

    @settings(max_examples=200, deadline=None)
    @given(assignment_lists(), st.booleans())
    def test_simplify_descriptors_equals_the_interned_pipeline(
        self, assignments, uniform
    ):
        """The coordinator's mirror keeps what the engine's entry keeps, in order."""
        if uniform and assignments:
            size = len(assignments[0])
            assignments = [a for a in assignments if len(a) == size]
        descriptors = [WSDescriptor(descriptor) for descriptor in assignments]
        image = {
            descriptor: packed(assignment)
            for descriptor, assignment in zip(descriptors, assignments)
        }
        interned = [packed(descriptor) for descriptor in assignments]
        assert [image[d] for d in simplify_descriptors(descriptors)] == (
            remove_subsumed_interned(deduplicate_interned(interned))
        )

    @pytest.mark.parametrize("sizes", [(3,), (1, 2, 3)], ids=["uniform", "mixed"])
    def test_simplify_descriptors_seeded(self, sizes):
        for seed in range(100):
            rng = random.Random(seed)
            count = rng.randint(0, 30)
            interned, _ = random_packed_wsset(rng, 8, [4] * 8, count, sizes)
            if interned:
                interned += rng.choices(interned, k=rng.randint(0, 8))
            rng.shuffle(interned)
            descriptors = [
                WSDescriptor([(p >> ORACLE_SHIFT, p & 3) for p in descriptor])
                for descriptor in interned
            ]
            image = dict(zip(descriptors, interned))
            assert [image[d] for d in simplify_descriptors(descriptors)] == (
                remove_subsumed_interned(deduplicate_interned(interned))
            ), seed

    @settings(max_examples=300, deadline=None)
    @given(assignment_lists())
    def test_kept_after_subsumption_equals_the_scan(self, assignments):
        items = [set(packed(descriptor)) for descriptor in assignments]
        assert kept_after_subsumption(items) == scan_kept_after_subsumption(items)

    @pytest.mark.parametrize(
        "items",
        [
            [],
            [set()],
            [{1}, set(), {2}, set()],  # only the first empty item survives
            [{1, 2}, {1, 2}, {2, 1}],  # duplicates: first occurrence wins
            [{1, 2}, {3, 4}, {1, 3}, {2, 4}],  # all sizes equal, nothing subsumed
            [{1, 2, 3}, {1, 2}, {1}],  # a chain a ⊂ b ⊂ c, largest first
            [{1}, {1, 2}, {1, 2, 3}, {4, 5}, {5}],
            [{1, 2, 3}, {2, 3}, {3, 4}, {1, 2, 3, 4}],
        ],
    )
    def test_kept_after_subsumption_corner_cases(self, items):
        assert kept_after_subsumption(items) == scan_kept_after_subsumption(items)


def scan_split(descriptors, variable_id, shift, domain_size):
    """The linear scan ``split_on_variable_interned`` used to make."""
    low, high = variable_id << shift, (variable_id + 1) << shift
    branches = [None] * domain_size
    unmentioned = []
    for descriptor in descriptors:
        for index, assignment in enumerate(descriptor):
            if low <= assignment < high:
                reduced = descriptor[:index] + descriptor[index + 1 :]
                branch = branches[assignment - low]
                if branch is None:
                    branches[assignment - low] = [reduced]
                else:
                    branch.append(reduced)
                break
        else:
            unmentioned.append(descriptor)
    for value_id, branch in enumerate(branches):
        if branch is None:
            continue
        if () in branch:
            branches[value_id] = CERTAIN
        elif unmentioned:
            branch.extend([t for t in unmentioned if t not in set(branch)])
    return branches, unmentioned


def random_packed_wsset(rng, variable_count, domains, count, sizes):
    """``count`` sorted packed descriptors of a size drawn from ``sizes``."""
    shift = max(1, (max(domains) - 1).bit_length())
    descriptors = []
    for _ in range(count):
        size = min(rng.choice(sizes), variable_count)
        variables = rng.sample(range(variable_count), size)
        descriptors.append(
            tuple(sorted((v << shift) | rng.randrange(domains[v]) for v in variables))
        )
    return descriptors, shift


class TestSplitAndUniformSubsumption:
    def test_split_equals_the_linear_scan(self):
        for seed in range(100):
            rng = random.Random(seed)
            variable_count = rng.randint(1, 9)
            # Domains of 2-5 values: shift 3 whenever some domain exceeds 4.
            domains = [rng.randint(2, 5) for _ in range(variable_count)]
            descriptors, shift = random_packed_wsset(
                rng, variable_count, domains, rng.randint(0, 25), (1, 2, 3, 4)
            )
            descriptors = deduplicate_interned(descriptors)
            # Every id, so 0 and the largest are always among them.
            for variable_id, domain_size in enumerate(domains):
                assert split_on_variable_interned(
                    descriptors, variable_id, shift, domain_size
                ) == scan_split(descriptors, variable_id, shift, domain_size), seed

    def test_split_at_the_id_edges(self):
        shift = 3  # a five-value domain
        zero, last = 0, 6
        descriptors = [
            ((zero << shift) | 4, (3 << shift) | 1),
            ((3 << shift) | 0, (last << shift) | 4),
            ((last << shift) | 2,),
            ((zero << shift) | 1,),
            ((2 << shift) | 2, (3 << shift) | 3),
        ]
        for variable_id in (zero, last):
            assert split_on_variable_interned(
                descriptors, variable_id, shift, 5
            ) == scan_split(descriptors, variable_id, shift, 5)

    def test_uniform_size_subsumption_is_deduplication(self):
        for seed in range(100):
            rng = random.Random(seed)
            size = rng.randint(0, 4)
            descriptors, _ = random_packed_wsset(
                rng, 6, [rng.randint(2, 5)] * 6, rng.randint(0, 30), (size,)
            )
            if descriptors:
                descriptors += rng.choices(descriptors, k=rng.randint(0, 8))
            rng.shuffle(descriptors)
            kept = kept_after_subsumption([set(d) for d in descriptors])
            simplified = remove_subsumed_interned(descriptors)
            assert simplified == [descriptors[i] for i in kept], seed
            assert simplified == deduplicate_interned(descriptors), seed

    def test_uniform_size_probe_deduplicates_once(
        self, monkeypatch, figure3_world_table
    ):
        """Interning leaves a duplicate-free list; the engine trusts it."""
        import repro.core.interned as interned_module

        calls = []

        def counting(descriptors):
            calls.append(len(descriptors))
            return deduplicate_interned(descriptors)

        monkeypatch.setattr(interned_module, "deduplicate_interned", counting)
        engine = InternedEngine(figure3_world_table, ExactConfig())
        ws_set = WSSet([{"x": 1, "y": 1}, {"x": 2, "z": 1}, {"x": 1, "y": 1}])
        value = engine.cached_wsset(ws_set)
        assert calls == [2]
        assert value == probability(ws_set, figure3_world_table)

    def test_interned_descriptor_lists_are_duplicate_free(self, space):
        x1, x2 = space.intern_items([("x", 1)]), space.intern_items([("x", 2)])
        assert space.intern_descriptors([{"x": 1}, {"x": 2}, {"x": 1}]) == [x1, x2]


class TestSparseScale:
    def test_cold_confidence_of_4000_sparse_descriptors(self):
        """The paper's Figure 10/13 sizes: near-linear, not two quadratic scans.

        The bound is absolute and wide on purpose — the quadratic passes took
        over 6 s here, the index-based ones take ~30 ms — so host noise cannot
        flip it either way.
        """
        instance = generate_hard_instance(
            HardCaseParameters(
                num_variables=64_000,
                alternatives=50,
                descriptor_length=2,
                num_descriptors=4000,
                seed=19,
            )
        )
        descriptors = list(instance.ws_set)
        with repro.connect(instance.world_table) as session:
            # Imports and the table's interned id space are not what is timed.
            session.confidence(WSSet(descriptors[:1]))
            session.clear_cache()
            started = time.perf_counter()
            value = session.confidence(instance.ws_set).value
            elapsed = time.perf_counter() - started
        assert elapsed < 1.0

        # Exact value: 1 − Π (1 − P(component)), inclusion-exclusion per component.
        weight = Fraction(1, instance.parameters.alternatives)
        complement = Fraction(1)
        for component in connected_components(to_internal(instance.ws_set)):
            inside = Fraction(0)
            for size in range(1, len(component) + 1):
                for subset in combinations(component, size):
                    merged = {}
                    consistent = all(
                        merged.setdefault(variable, value) == value
                        for descriptor in subset
                        for variable, value in descriptor.items()
                    )
                    if consistent:
                        inside -= (-1) ** size * weight ** len(merged)
            complement *= 1 - inside
        assert 0.1 < value < 0.9
        assert abs(Fraction(value) - (1 - complement)) < Fraction(1, 10**12)
