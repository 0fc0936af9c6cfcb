"""Integration tests: the database facade, constraints, conf() and conditioning.

These follow the paper's introduction end to end: prior confidences, asserting
the functional dependency SSN -> NAME, posterior (conditional) confidences,
and the certain-answer query with Fred added.
"""

from __future__ import annotations

import random

import pytest

from repro.core.probability import ExactConfig
from repro.core.wsset import WSSet
from repro.db.algebra import project, select
from repro.db.constraints import (
    DenialConstraint,
    EqualityGeneratingDependency,
    FunctionalDependency,
    KeyConstraint,
    condition_from_boolean_query,
)
from repro.db.database import ProbabilisticDatabase
from repro.db.predicates import attr
from repro.db.tuple_independent import (
    attach_tuple_variables,
    random_tuple_probabilities,
    tuple_independent_relation,
)
from repro.db.world_table import WorldTable
from repro.errors import UnknownRelationError, ZeroProbabilityConditionError
from repro.workloads.random_instances import random_tuple_independent_database


def add_fred(db: ProbabilisticDatabase) -> None:
    db.world_table.add_variable("f", {1: 0.5, 4: 0.5})
    relation = db.relation("R")
    relation.add({"f": 1}, (1, "Fred"))
    relation.add({"f": 4}, (4, "Fred"))


class TestDatabaseBasics:
    def test_relation_registry(self, ssn_database):
        assert ssn_database.relation_names == ("R",)
        assert "R" in ssn_database
        with pytest.raises(UnknownRelationError):
            ssn_database.relation("missing")
        with pytest.raises(UnknownRelationError):
            ssn_database.add_relation(ssn_database.relation("R"))

    def test_world_count_and_instances(self, ssn_database):
        assert ssn_database.world_count() == 4
        distribution = ssn_database.instance_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert len(distribution) == 4  # the four worlds of Figure 1

    def test_variables_in_use_and_copy(self, ssn_database):
        assert ssn_database.variables_in_use() == frozenset({"j", "b"})
        clone = ssn_database.copy()
        clone.relation("R").add_certain((9, "Extra"))
        assert len(ssn_database.relation("R")) == 4

    def test_repr_and_pretty(self, ssn_database):
        assert "R[4]" in repr(ssn_database)
        assert "U-relation R" in ssn_database.pretty()


class TestConfidenceQueries:
    def test_prior_bill_confidences(self, ssn_database):
        """select SSN, conf(SSN) from R where NAME = 'Bill' (introduction)."""
        bill = select(ssn_database.relation("R"), attr("NAME") == "Bill")
        rows = {
            row.values[0]: row.confidence
            for row in ssn_database.tuple_confidences(bill)
        }
        assert rows[4] == pytest.approx(0.3)
        assert rows[7] == pytest.approx(0.7)

    def test_relation_confidence(self, ssn_database):
        session = ssn_database.session()
        assert session.confidence(ssn_database.relation("R")).value == pytest.approx(
            1.0
        )

    def test_confidence_accepts_many_targets(self, ssn_database):
        ws = WSSet([{"j": 1}])
        assert ssn_database.confidence(ws) == pytest.approx(0.2)
        assert ssn_database.confidence("R") == pytest.approx(1.0)
        assert ssn_database.confidence(ssn_database.relation("R")) == pytest.approx(1.0)
        with pytest.raises(TypeError):
            ssn_database.confidence(42)

    def test_possible_and_certain_tuples(self, ssn_database):
        session = ssn_database.session()
        names = project(ssn_database.relation("R"), ["NAME"])
        certain = session.certain_tuples(names)
        assert sorted(certain) == [("Bill",), ("John",)]
        possible = session.possible_tuples(
            project(ssn_database.relation("R"), ["SSN"])
        )
        assert {row.values[0] for row in possible} == {1, 4, 7}


class TestConstraints:
    def test_fd_violation_and_condition(self, ssn_database):
        fd = FunctionalDependency("R", ["SSN"], ["NAME"])
        violations = fd.violation_wsset(ssn_database)
        assert violations == WSSet([{"j": 7, "b": 7}])
        condition = fd.condition_wsset(ssn_database)
        assert ssn_database.confidence(condition) == pytest.approx(0.44)
        assert not fd.holds_certainly(ssn_database)
        assert "SSN" in fd.describe()

    def test_fd_that_always_holds(self, ssn_database):
        fd = FunctionalDependency("R", ["NAME"], ["NAME"])
        assert fd.holds_certainly(ssn_database)
        assert fd.condition_wsset(ssn_database) == WSSet.universal()

    def test_key_constraint_equivalent_to_fd_here(self, ssn_database):
        key = KeyConstraint.for_relation(ssn_database.relation("R"), ["SSN"])
        fd = FunctionalDependency("R", ["SSN"], ["NAME"])
        assert key.violation_wsset(ssn_database) == fd.violation_wsset(ssn_database)
        assert "key" in key.describe()

    def test_denial_constraint_matches_fd(self, ssn_database):
        denial = DenialConstraint(
            relations=("R", "R"),
            predicate=(attr("1.SSN") == attr("2.SSN")) & (attr("1.NAME") != attr("2.NAME")),
        )
        fd = FunctionalDependency("R", ["SSN"], ["NAME"])
        assert denial.violation_wsset(ssn_database) == fd.violation_wsset(ssn_database)

    def test_egd_across_relations(self):
        db = ProbabilisticDatabase()
        db.world_table.add_boolean("s0", 0.5)
        db.world_table.add_boolean("t0", 0.5)
        left = db.create_relation("S", ("K", "V"))
        left.add({"s0": True}, (1, "a"))
        right = db.create_relation("T", ("K", "V"))
        right.add({"t0": True}, (1, "b"))
        egd = EqualityGeneratingDependency(
            left_relation="S", right_relation="T",
            equal_on=(("K", "K"),), must_agree_on=(("V", "V"),),
        )
        violations = egd.violation_wsset(db)
        assert violations == WSSet([{"s0": True, "t0": True}])

    def test_condition_from_boolean_query(self, ssn_database):
        bill = select(ssn_database.relation("R"), attr("NAME") == "Bill")
        assert condition_from_boolean_query(bill) == bill.descriptors()


class TestConditioningEndToEnd:
    def test_intro_posterior_confidences(self, ssn_database):
        fd = FunctionalDependency("R", ["SSN"], ["NAME"])
        posterior, summary = ssn_database.conditioned(fd, ExactConfig.indve("minlog"))
        assert summary.confidence == pytest.approx(0.44)
        bill = select(posterior.relation("R"), attr("NAME") == "Bill")
        rows = {
            row.values[0]: row.confidence for row in posterior.tuple_confidences(bill)
        }
        assert rows[4] == pytest.approx(0.3 / 0.44)
        assert rows[7] == pytest.approx(1 - 0.3 / 0.44)
        # The prior database is untouched.
        assert ssn_database.confidence(WSSet([{"j": 7, "b": 7}])) > 0

    def test_assert_condition_mutates_in_place(self, ssn_database):
        fd = FunctionalDependency("R", ["SSN"], ["NAME"])
        summary = ssn_database.assert_condition(fd)
        assert summary.confidence == pytest.approx(0.44)
        assert sum(ssn_database.instance_distribution().values()) == pytest.approx(1.0)
        # Asserting the same constraint again is now (almost) a no-op.
        second = ssn_database.assert_condition(fd)
        assert second.confidence == pytest.approx(1.0)

    def test_posterior_instance_distribution_matches_brute_force(self, ssn_database):
        prior = ssn_database.instance_distribution()
        fd = FunctionalDependency("R", ["SSN"], ["NAME"])
        condition = fd.condition_wsset(ssn_database)
        posterior, _ = ssn_database.conditioned(condition)

        satisfied = {}
        for world, probability, instance in ssn_database.possible_worlds():
            if condition.is_satisfied_by(world):
                key = tuple(
                    sorted(
                        (name, tuple(sorted(rows)))
                        for name, rows in instance.items()
                    )
                )
                satisfied[key] = satisfied.get(key, 0.0) + probability
        mass = sum(satisfied.values())
        expected = {key: value / mass for key, value in satisfied.items()}

        actual = {}
        for key, value in posterior.instance_distribution().items():
            simplified = tuple((name, tuple(sorted(rows))) for name, rows in key)
            actual[simplified] = actual.get(simplified, 0.0) + value

        assert set(actual) == set(expected)
        for key, value in expected.items():
            assert actual[key] == pytest.approx(value)
        assert prior != expected  # conditioning actually changed something

    def test_certain_answers_with_fred(self, ssn_database):
        add_fred(ssn_database)
        ssn_database.assert_condition(FunctionalDependency("R", ["SSN"], ["NAME"]))
        ssns = project(ssn_database.relation("R"), ["SSN"])
        assert sorted(ssn_database.session().certain_tuples(ssns)) == [
            (1,),
            (4,),
            (7,),
        ]
        assert ssn_database.world_count() <= 4

    def test_posterior_confidence_without_materialisation(self, ssn_database):
        fd = FunctionalDependency("R", ["SSN"], ["NAME"])
        bill4 = WSSet([{"b": 4}])
        assert ssn_database.posterior_confidence(bill4, fd) == pytest.approx(0.3 / 0.44)

    def test_unsatisfiable_condition_raises(self, ssn_database):
        with pytest.raises(ZeroProbabilityConditionError):
            ssn_database.assert_condition(WSSet([{"j": 1, "b": 4}, {"j": 7}]).intersect(
                WSSet([{"j": 1, "b": 7}])
            ).intersect(WSSet([{"j": 7}])))

    def test_summary_reports_variable_changes(self, ssn_database):
        fd = FunctionalDependency("R", ["SSN"], ["NAME"])
        summary = ssn_database.assert_condition(fd)
        assert summary.rewritten_tuples >= len(ssn_database.relation("R"))
        assert isinstance(summary.new_variables, tuple)
        assert isinstance(summary.dropped_variables, tuple)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_fd_conditioning_matches_brute_force(self, seed):
        rng = random.Random(4242 + seed)
        database = random_tuple_independent_database(
            rng, num_tuples=5, num_attribute_values=2
        )
        fd = FunctionalDependency("R", ["A"], ["B"])
        condition = fd.condition_wsset(database)
        if database.confidence(condition) == 0.0:
            pytest.skip("constraint unsatisfiable in this draw")

        satisfied = {}
        for world, probability, instance in database.possible_worlds():
            if condition.is_satisfied_by(world):
                key = tuple(sorted(map(tuple, instance["R"])))
                satisfied[key] = satisfied.get(key, 0.0) + probability
        mass = sum(satisfied.values())
        expected = {key: value / mass for key, value in satisfied.items()}

        posterior, summary = database.conditioned(fd)
        assert summary.confidence == pytest.approx(mass)
        actual = {}
        for key, value in posterior.instance_distribution().items():
            relation_rows = dict(key)["R"]
            simplified = tuple(sorted(map(tuple, relation_rows)))
            actual[simplified] = actual.get(simplified, 0.0) + value
        assert set(actual) == set(expected)
        for key, value in expected.items():
            assert actual[key] == pytest.approx(value)


class TestTupleIndependentHelpers:
    def test_tuple_independent_relation(self):
        w = WorldTable()
        relation = tuple_independent_relation(
            "T", ("A",), [((1,), 0.5), ((2,), 1.0)], w
        )
        assert len(relation) == 2
        assert len(w) == 1  # the certain tuple gets no variable
        assert relation.rows[1].descriptor.is_empty

    def test_random_tuple_probabilities(self, rng):
        probabilities = random_tuple_probabilities(10, rng, low=0.2, high=0.4)
        assert len(probabilities) == 10
        assert all(0.2 <= p <= 0.4 for p in probabilities)
        with pytest.raises(ValueError):
            random_tuple_probabilities(3, rng, low=0.9, high=0.1)

    def test_attach_tuple_variables(self):
        db = ProbabilisticDatabase()
        relation = db.create_relation("S", ("A",))
        relation.add_certain((1,))
        relation.add_certain((2,))
        attach_tuple_variables(db, "S", 0.5)
        assert len(db.world_table) == 2
        assert db.confidence(WSSet([db.relation("S").rows[0].descriptor])) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            attach_tuple_variables(db, "S", [0.5])
