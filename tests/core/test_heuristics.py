"""Unit tests for the variable-choice heuristics (Section 4.2, Figure 6)."""

from __future__ import annotations

import math
import random

import pytest

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
