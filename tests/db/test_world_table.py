"""Unit tests for world tables (Section 2)."""

from __future__ import annotations

import random

import pytest

from repro.db.world_table import WorldTable
from repro.errors import (
    InvalidDistributionError,
    UnknownValueError,
    UnknownVariableError,
)


class TestConstruction:
    def test_add_variable_and_lookup(self, figure2_world_table):
        assert figure2_world_table.probability("j", 1) == pytest.approx(0.2)
        assert figure2_world_table.domain("b") == (4, 7)
        assert figure2_world_table.domain_size("j") == 2
        assert len(figure2_world_table) == 2
        assert "j" in figure2_world_table and "zz" not in figure2_world_table

    def test_from_rows(self):
        w = WorldTable([("x", 1, 0.25), ("x", 2, 0.75), ("y", True, 1.0)])
        assert w.probability("x", 2) == pytest.approx(0.75)
        assert w.is_singleton("y")

    def test_rows_round_trip(self, figure3_world_table):
        rebuilt = WorldTable(figure3_world_table.rows())
        assert rebuilt == figure3_world_table

    def test_add_boolean(self):
        w = WorldTable()
        w.add_boolean("t", 0.3)
        assert w.probability("t", True) == pytest.approx(0.3)
        assert w.probability("t", False) == pytest.approx(0.7)

    def test_normalize(self):
        w = WorldTable()
        w.add_variable("x", {1: 2.0, 2: 6.0}, normalize=True)
        assert w.probability("x", 1) == pytest.approx(0.25)

    def test_invalid_distributions_rejected(self):
        w = WorldTable()
        with pytest.raises(InvalidDistributionError):
            w.add_variable("x", {1: 0.5, 2: 0.6})
        with pytest.raises(InvalidDistributionError):
            w.add_variable("y", {})
        with pytest.raises(InvalidDistributionError):
            w.add_variable("z", {1: -0.1, 2: 1.1})
        with pytest.raises(InvalidDistributionError):
            w.add_boolean("b", 1.5)

    def test_duplicate_variable_rejected(self, figure2_world_table):
        with pytest.raises(InvalidDistributionError):
            figure2_world_table.add_variable("j", {1: 1.0})

    def test_duplicate_alternative_rejected(self):
        w = WorldTable()
        w.add_alternative("x", 1, 0.5)
        with pytest.raises(InvalidDistributionError):
            w.add_alternative("x", 1, 0.5)

    def test_validate_detects_bad_sum(self):
        w = WorldTable()
        w.add_alternative("x", 1, 0.5)
        with pytest.raises(InvalidDistributionError):
            w.validate()

    def test_unknown_variable_and_value(self, figure2_world_table):
        with pytest.raises(UnknownVariableError):
            figure2_world_table.domain("nope")
        with pytest.raises(UnknownValueError):
            figure2_world_table.probability("j", 99)
        with pytest.raises(UnknownVariableError):
            figure2_world_table.remove_variable("nope")


class TestWorlds:
    def test_world_count(self, figure2_world_table, figure3_world_table):
        assert figure2_world_table.world_count() == 4
        assert figure3_world_table.world_count() == 3 * 2 * 2 * 2 * 2

    def test_iter_worlds_probabilities_sum_to_one(self, figure2_world_table):
        total = sum(
            figure2_world_table.world_probability(world)
            for world in figure2_world_table.iter_worlds()
        )
        assert total == pytest.approx(1.0)

    def test_figure1_world_probability(self, figure2_world_table):
        assert figure2_world_table.world_probability({"j": 7, "b": 7}) == pytest.approx(0.56)
        assert figure2_world_table.world_probability({"j": 1, "b": 4}) == pytest.approx(0.06)

    def test_assignment_probability(self, figure3_world_table):
        assert figure3_world_table.assignment_probability(
            [("x", 2), ("y", 1)]
        ) == pytest.approx(0.08)

    def test_sampling_follows_distribution(self, figure2_world_table):
        rng = random.Random(5)
        draws = [figure2_world_table.sample_value(rng, "j") for _ in range(4000)]
        frequency = draws.count(7) / len(draws)
        assert frequency == pytest.approx(0.8, abs=0.03)

    def test_sample_world_assigns_every_variable(self, figure3_world_table):
        world = figure3_world_table.sample_world(random.Random(1))
        assert set(world) == set(figure3_world_table.variables)


class TestCopyingAndCombining:
    def test_copy_is_independent(self, figure2_world_table):
        clone = figure2_world_table.copy()
        clone.add_variable("new", {0: 1.0})
        assert "new" not in figure2_world_table

    def test_restrict(self, figure3_world_table):
        restricted = figure3_world_table.restrict(["x", "y"])
        assert set(restricted.variables) == {"x", "y"}

    def test_merged_with(self, figure2_world_table):
        other = WorldTable()
        other.add_variable("f", {1: 0.5, 4: 0.5})
        merged = figure2_world_table.merged_with(other)
        assert set(merged.variables) == {"j", "b", "f"}

    def test_merged_with_shares_domains_until_a_side_edits_one(self, figure2_world_table):
        other = WorldTable()
        other.add_variable("f", {1: 0.5, 4: 0.5})
        merged = figure2_world_table.merged_with(other, keep={"j", "f"})
        assert merged.rows() == [("j", 1, 0.2), ("j", 7, 0.8), ("f", 1, 0.5), ("f", 4, 0.5)]
        merged.add_alternative("j", 9, 0.0)
        figure2_world_table.add_alternative("b", 9, 0.0)
        other.add_alternative("f", 9, 0.0)
        assert merged.domain("j") == (1, 7, 9) and merged.domain("f") == (1, 4)
        assert figure2_world_table.domain("j") == (1, 7)
        assert figure2_world_table.domain("b") == (4, 7, 9)
        assert "b" not in merged

    def test_ordered_follows_table_order_with_or_without_a_space(self):
        table = WorldTable()
        for variable in ("q", "a", "m", "z", "b"):
            table.add_variable(variable, {0: 0.5, 1: 0.5})
        assert table.ordered({"z", "a", "b"}) == ["a", "z", "b"]
        table.interned()
        assert table.ordered({"z", "a", "b"}) == ["a", "z", "b"]
        successor = table.merged_with(WorldTable([("c", 0, 1.0)]), keep={"z", "b", "c", "q"})
        assert successor.ordered({"c", "b", "q"}) == ["q", "b", "c"]

    def test_merged_with_conflicting_distribution_raises(self, figure2_world_table):
        other = WorldTable()
        other.add_variable("j", {1: 0.5, 7: 0.5})
        with pytest.raises(InvalidDistributionError):
            figure2_world_table.merged_with(other)

    def test_alternative_count_and_pretty(self, figure2_world_table):
        assert figure2_world_table.alternative_count() == 4
        rendering = figure2_world_table.pretty()
        assert "Var" in rendering and "0.2" in rendering
