"""Unit tests for the variable-choice heuristics (Section 4.2, Figure 6)."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineHandle
from repro.core.heuristics import (
    FirstVariableHeuristic,
    Heuristic,
    MinLogHeuristic,
    MinMaxHeuristic,
    MostFrequentHeuristic,
    available_heuristics,
    make_heuristic,
)
from repro.core.probability import ExactConfig, probability_with_stats
from repro.db.world_table import WorldTable
from repro.workloads.hard import HardCaseParameters, generate_hard_wsset
from repro.workloads.random_instances import random_world_table, random_wsset

from figure8_oracle import count_occurrences


@pytest.fixture
def binary_table() -> WorldTable:
    w = WorldTable()
    for name in ("x", "y", "z"):
        w.add_variable(name, {0: 0.5, 1: 0.5})
    return w


class TestFactory:
    def test_known_names(self):
        for name in available_heuristics():
            assert isinstance(make_heuristic(name), Heuristic)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_heuristic("does-not-exist")

    def test_instance_passes_through(self):
        heuristic = MinMaxHeuristic()
        assert make_heuristic(heuristic) is heuristic

    def test_available_heuristics_contains_paper_ones(self):
        names = available_heuristics()
        assert "minlog" in names
        assert "minmax" in names


class TestCountOccurrences:
    def test_counts(self):
        descriptors = [{"x": 1, "y": 2}, {"x": 1}, {"x": 2}]
        occurrences = count_occurrences(descriptors)
        assert occurrences == {"x": {1: 2, 2: 1}, "y": {2: 1}}

    def test_empty(self):
        assert count_occurrences([]) == {}


class TestMinLog:
    def test_matches_manual_log_sum_exp(self):
        heuristic = MinLogHeuristic()
        # Variable with two occurring values, branch sizes 3 and 5, and no
        # missing assignment.  Figure 6 initialises e = 0 (i.e. a summand of
        # 2^0) and then accumulates exactly, so the estimate is
        # log2(2^0 + 2^3 + 2^5).
        estimate = heuristic.estimate("x", {0: 1, 1: 3}, t_size=2, domain_size=2)
        assert estimate == pytest.approx(math.log2(1 + 2**3 + 2**5))

    def test_missing_assignment_adds_t_branch(self):
        heuristic = MinLogHeuristic()
        # One occurring value (branch size 4) plus the T-only branch of size 2.
        estimate = heuristic.estimate("x", {0: 2}, t_size=2, domain_size=3)
        assert estimate == pytest.approx(math.log2(2**2 + 2**4))

    def test_large_exponents_do_not_overflow(self):
        heuristic = MinLogHeuristic()
        estimate = heuristic.estimate("x", {0: 500, 1: 800}, t_size=10_000, domain_size=2)
        assert math.isfinite(estimate)
        assert estimate >= 10_000

    def test_remark_46_scenario_prefers_x(self, binary_table):
        """Remark 4.6: minmax prefers y but minlog prefers x.

        x occurs with the same assignment in n-1 descriptors (minmax estimate
        n); y occurs twice with different assignments (minmax estimate n-1).
        minlog recognises that eliminating y duplicates almost everything.
        """
        n = 6
        # Occurrence statistics of the Remark's scenario: x occurs with one
        # assignment in n-1 of the n descriptors; y occurs twice with
        # different assignments (and has a third, unused alternative).
        occurrences = {
            "x": {0: n - 1},
            "y": {0: 1, 1: 1},
        }
        table = WorldTable()
        table.add_variable("x", {0: 0.5, 1: 0.5})
        table.add_variable("y", {0: 0.4, 1: 0.3, 2: 0.3})
        minmax_choice = MinMaxHeuristic().select_variable(occurrences, n, table)
        minlog_choice = MinLogHeuristic().select_variable(occurrences, n, table)
        assert minmax_choice == "y"
        assert minlog_choice == "x"


class TestMinMax:
    def test_estimate_is_largest_branch(self):
        heuristic = MinMaxHeuristic()
        assert heuristic.estimate("x", {0: 3, 1: 1}, t_size=2, domain_size=2) == 5.0

    def test_missing_assignment_considers_t(self):
        heuristic = MinMaxHeuristic()
        assert heuristic.estimate("x", {0: 1}, t_size=4, domain_size=2) == 5.0


class TestSelection:
    def test_select_prefers_partitioning_variable(self, binary_table):
        # x splits the set cleanly (appears in every descriptor with both
        # values); y appears only once, so eliminating it copies T everywhere.
        descriptors = [{"x": 0, "y": 1}, {"x": 1}, {"x": 0}]
        occurrences = count_occurrences(descriptors)
        for heuristic in (MinLogHeuristic(), MinMaxHeuristic()):
            assert heuristic.select_variable(occurrences, len(descriptors), binary_table) == "x"

    def test_first_variable_heuristic(self, binary_table):
        occurrences = count_occurrences([{"z": 1}, {"y": 0}])
        assert FirstVariableHeuristic().select_variable(occurrences, 2, binary_table) == "z"

    def test_most_frequent_heuristic(self, binary_table):
        occurrences = count_occurrences([{"z": 1, "y": 0}, {"y": 1}, {"y": 0}])
        assert MostFrequentHeuristic().select_variable(occurrences, 3, binary_table) == "y"


class TestDeterminism:
    @pytest.mark.parametrize("name", available_heuristics())
    def test_recorded_circuit_is_bit_identical_to_the_evaluation(self, name):
        """A heuristic is a function of the counts: recording re-makes every choice.

        The circuit recorder, a second evaluation and conditioning replay the
        variable choices of the first evaluation; a heuristic with hidden state
        (such as a random draw) would let them diverge.
        """
        mismatches = []
        for seed in range(40):
            rng = random.Random(seed)
            world_table = random_world_table(rng, num_variables=8, max_domain_size=3)
            ws_set = random_wsset(rng, world_table, num_descriptors=16, max_length=3)
            handle = EngineHandle(world_table, ExactConfig(heuristic=name))
            recorded = handle.compile(ws_set).evaluate()
            if recorded.hex() != handle.probability(ws_set).hex():
                mismatches.append(seed)
        assert mismatches == []


class TestDefaultHeuristic:
    @pytest.mark.parametrize(
        "shape",
        [
            dict(num_variables=16, num_descriptors=32),  # Figure 11a
            dict(num_variables=30, num_descriptors=20),  # Figure 12
            dict(num_variables=2000, num_descriptors=200),  # Figure 13
        ],
        ids=["figure11a", "figure12", "figure13"],
    )
    def test_default_expands_the_fewest_frames(self, shape):
        """Why the default is max-occurrence: it beats minlog, minmax and first
        on the decomposition frame count, a deterministic count, not a clock.

        Frames are summed over four seeds per family (r=2, s=4): single
        instances go either way.  Sparser Figure 13 instances (w=100, 150)
        are not claimed: there the default expands more frames than minlog.
        """
        frames = {}
        for name in available_heuristics():
            frames[name] = 0
            for seed in range(4):
                parameters = HardCaseParameters(
                    alternatives=2, descriptor_length=4, seed=seed, **shape
                )
                world_table, ws_set = generate_hard_wsset(parameters)
                result = probability_with_stats(
                    ws_set, world_table, ExactConfig(heuristic=name)
                )
                frames[name] += result.stats.recursive_calls
        assert frames[ExactConfig().heuristic] == min(frames.values()), frames


class _CoarseEstimate(Heuristic):
    """A user heuristic that defines only ``estimate``; coarse, so it ties often."""

    name = "coarse"

    def estimate(self, variable, value_counts, t_size, domain_size) -> float:
        return float(max(value_counts.values()) // 2 - t_size // 3 + domain_size % 2)


SELECTORS = [make_heuristic(name) for name in available_heuristics()]
SELECTORS.append(_CoarseEstimate())


def _packed_wsset(rng):
    """A random packed ws-set with a forced tie, and its id space.

    Variables ``a`` and ``b`` get one domain size and the ws-set is closed
    under swapping them, so both have the same per-value counts: every
    heuristic scores them equally and only the first-seen rule decides.
    """
    variable_count = rng.randint(2, 7)
    domains = [rng.randint(2, 5) for _ in range(variable_count)]
    a, b = rng.sample(range(variable_count), 2)
    domains[b] = domains[a]
    shift = max(1, (max(domains) - 1).bit_length())
    space = SimpleNamespace(
        shift=shift, mask=(1 << shift) - 1, domain_size=domains.__getitem__
    )
    swap = {a: b, b: a}
    descriptors = []
    for _ in range(rng.randint(1, 12)):
        size = rng.randint(1, min(4, variable_count))
        variables = rng.sample(range(variable_count), size)
        assignment = {v: rng.randrange(domains[v]) for v in variables}
        for image in (assignment, {swap.get(v, v): i for v, i in assignment.items()}):
            descriptor = tuple(sorted((v << shift) | i for v, i in image.items()))
            if descriptor not in descriptors:
                descriptors.append(descriptor)
    rng.shuffle(descriptors)
    return descriptors, space, rng.getrandbits(variable_count)


def _grouped(descriptors, space, tuple_mask=None):
    """``variable -> value -> count`` in first-seen order, by a plain scan."""
    occurrences: dict = {}
    for packed in chain.from_iterable(descriptors):
        variable, value = packed >> space.shift, packed & space.mask
        if tuple_mask is None or (tuple_mask >> variable) & 1:
            by_value = occurrences.setdefault(variable, {})
            by_value[value] = by_value.get(value, 0) + 1
    return occurrences


def _check_select_packed(descriptors, space, tuple_mask):
    counts = Counter(chain.from_iterable(descriptors))
    # Conditioning's preference: only variables the remaining tuples mention.
    shared = {
        packed: count
        for packed, count in counts.items()
        if (tuple_mask >> (packed >> space.shift)) & 1
    }
    cases = [(counts, _grouped(descriptors, space))]
    if shared:
        cases.append((shared, _grouped(descriptors, space, tuple_mask)))
    for heuristic in SELECTORS:
        for packed_counts, occurrences in cases:
            if len(occurrences) == 1:
                expected = next(iter(occurrences))
            else:
                expected = heuristic.select_variable(
                    occurrences, len(descriptors), space
                )
            chosen = heuristic.select_packed(packed_counts, len(descriptors), space)
            assert chosen == expected, (heuristic, descriptors, tuple_mask)


class TestSelectPacked:
    """``select_packed`` picks what ``select_variable`` picks from grouped counts."""

    def test_seeded(self):
        for seed in range(300):
            _check_select_packed(*_packed_wsset(random.Random(seed)))

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_hypothesis(self, rng):
        _check_select_packed(*_packed_wsset(rng))

    def test_frequency_ties_go_to_the_first_seen_variable(self):
        space = SimpleNamespace(shift=1, mask=1, domain_size=lambda variable: 2)
        # Variables 2 and 0 occur twice each; 2 is seen first.
        descriptors = [(4, 7), (0, 5), (1, 2)]
        counts = Counter(chain.from_iterable(descriptors))
        assert MostFrequentHeuristic().select_packed(counts, 3, space) == 2
