"""Unit tests for U-relations, predicates and the positive relational algebra.

The key integration property (tested both on the paper's examples and on
random instances) is that the algebra on U-relations commutes with the
possible-worlds semantics: evaluating the operator on the representation and
then looking at one world gives the same relation as evaluating the ordinary
relational operator inside that world (Section 2 of the paper).
"""

from __future__ import annotations

import random

import pytest

from repro.core.descriptors import EMPTY_DESCRIPTOR, WSDescriptor
from repro.db import algebra
from repro.db.predicates import (
    And,
    AttributeComparison,
    Constant,
    Not,
    Or,
    TruePredicate,
    attr,
    equality_join_predicate,
)
from repro.db.urelation import URelation, UTuple
from repro.errors import QueryError, SchemaError, UnknownAttributeError
from repro.workloads.random_instances import random_attribute_level_database


@pytest.fixture
def ssn_relation(ssn_database):
    return ssn_database.relation("R")


class TestURelation:
    def test_schema_and_rows(self, ssn_relation):
        assert ssn_relation.attributes == ("SSN", "NAME")
        assert len(ssn_relation) == 4
        assert ssn_relation.attribute_index("NAME") == 1
        assert ssn_relation.has_attribute("SSN")
        assert not ssn_relation.has_attribute("AGE")

    def test_unknown_attribute(self, ssn_relation):
        with pytest.raises(UnknownAttributeError):
            ssn_relation.attribute_index("AGE")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            URelation("bad", ("A", "A"))

    def test_arity_mismatch_rejected(self, ssn_relation):
        with pytest.raises(SchemaError):
            ssn_relation.add(EMPTY_DESCRIPTOR, (1,))

    def test_add_certain_and_from_dict(self):
        relation = URelation("S", ("A", "B"))
        relation.add_certain((1, 2))
        relation.add_from_dict({"x": 1}, {"B": 4, "A": 3})
        assert relation.rows[0].descriptor is EMPTY_DESCRIPTOR
        assert relation.rows[1].values == (3, 4)

    def test_in_world_matches_figure1(self, ssn_relation):
        world = {"j": 7, "b": 7}
        assert sorted(ssn_relation.in_world(world)) == [(7, "Bill"), (7, "John")]
        world = {"j": 1, "b": 4}
        assert sorted(ssn_relation.in_world(world)) == [(1, "John"), (4, "Bill")]

    def test_descriptors_and_variables(self, ssn_relation):
        assert len(ssn_relation.descriptors()) == 4
        assert ssn_relation.variables() == frozenset({"j", "b"})
        assert ssn_relation.descriptors_for_values((4, "Bill")) == (
            ssn_relation.descriptors_for_values((4, "Bill"))
        )

    def test_prefixed_and_renamed(self, ssn_relation):
        prefixed = ssn_relation.prefixed("1.")
        assert prefixed.attributes == ("1.SSN", "1.NAME")
        renamed = ssn_relation.renamed_attributes({"SSN": "ID"})
        assert renamed.attributes == ("ID", "NAME")

    def test_map_descriptors(self, ssn_relation):
        mapped = ssn_relation.map_descriptors(lambda d: d.renamed({"j": "john"}))
        assert frozenset(mapped.variables()) == frozenset({"john", "b"})

    def test_pretty_and_repr(self, ssn_relation):
        assert "U-relation R" in ssn_relation.pretty()
        assert "URelation" in repr(ssn_relation)

    def test_utuple_helpers(self):
        row = UTuple(WSDescriptor({"x": 1}), (10, 20, 30))
        assert row.project([2, 0]).values == (30, 10)
        assert row.with_descriptor(EMPTY_DESCRIPTOR).descriptor is EMPTY_DESCRIPTOR


class TestPredicates:
    def test_comparisons(self):
        row = {"A": 5, "B": "x"}
        assert (attr("A") == 5).evaluate(row)
        assert (attr("A") != 4).evaluate(row)
        assert (attr("A") < 6).evaluate(row)
        assert (attr("A") >= 5).evaluate(row)
        assert (attr("B") == attr("B")).evaluate(row)
        assert not (attr("A") > 5).evaluate(row)

    def test_boolean_combinators(self):
        row = {"A": 5}
        predicate = (attr("A") > 1) & (attr("A") < 10)
        assert predicate.evaluate(row)
        assert ((attr("A") < 1) | (attr("A") == 5)).evaluate(row)
        assert (~(attr("A") == 6)).evaluate(row)
        assert isinstance(~(attr("A") == 6), Not)
        assert isinstance(predicate, And)

    def test_between_and_in(self):
        row = {"A": 5}
        assert attr("A").between(1, 5).evaluate(row)
        assert not attr("A").between(6, 9).evaluate(row)
        assert attr("A").is_in([1, 5, 9]).evaluate(row)
        with pytest.raises(QueryError):
            attr("A").is_in([])

    def test_attributes_collection(self):
        predicate = (attr("A") == attr("B")) & (attr("C") > 1)
        assert predicate.attributes() == frozenset({"A", "B", "C"})
        assert TruePredicate().attributes() == frozenset()

    def test_unknown_attribute_raises(self):
        with pytest.raises(UnknownAttributeError):
            (attr("missing") == 1).evaluate({"A": 5})

    def test_equality_join_predicate(self):
        predicate = equality_join_predicate([("A", "B")])
        assert predicate.evaluate({"A": 1, "B": 1})
        assert not predicate.evaluate({"A": 1, "B": 2})
        assert isinstance(equality_join_predicate([]), TruePredicate)

    def test_or_short_circuit_semantics(self):
        assert isinstance((attr("A") == 1) | (attr("A") == 2), Or)

    def test_bind_resolves_names_to_positions(self):
        predicate = (attr("B") == "x") & (attr("A") < attr("C"))
        test = predicate.bind(("C", "A", "B"))
        assert test((9, 5, "x"))
        assert not test((9, 5, "y"))
        assert not test((1, 5, "x"))
        with pytest.raises(UnknownAttributeError):
            predicate.bind(("A", "B"))

    @pytest.mark.parametrize(
        "predicate, message",
        [
            (attr("A") < "x", "int < str"),
            (attr("A") >= attr("B"), "int >= str"),
            (AttributeComparison(Constant("x"), "<", attr("A")), "str < int"),
            (AttributeComparison(Constant(1), ">", Constant("x")), "int > str"),
        ],
        ids=["attr-constant", "attr-attr", "constant-attr", "constant-constant"],
    )
    def test_type_mismatch_is_a_query_error(self, predicate, message):
        with pytest.raises(QueryError, match=f"cannot compare {message}") as info:
            predicate.evaluate({"A": 5, "B": "x"})
        assert isinstance(info.value.__cause__, TypeError)


class TestAlgebra:
    def test_select(self, ssn_relation):
        bills = algebra.select(ssn_relation, attr("NAME") == "Bill")
        assert len(bills) == 2
        assert all(row.values[1] == "Bill" for row in bills)
        assert {row.values[0] for row in bills} == {4, 7}

    def test_select_binds_before_scanning(self):
        # The one declared behaviour change of binding: an unknown attribute
        # raises even when there is no row to test it on.
        empty = URelation("E", ("A",))
        with pytest.raises(UnknownAttributeError):
            algebra.select(empty, attr("missing") == 1)
        assert len(algebra.select(empty, attr("A") == 1)) == 0

    def test_project_keeps_descriptors(self, ssn_relation):
        ssns = algebra.project(ssn_relation, ["SSN"])
        assert ssns.attributes == ("SSN",)
        assert len(ssns) == 4

    def test_project_to_wsset(self, ssn_relation):
        assert algebra.project_to_wsset(ssn_relation) == ssn_relation.descriptors()

    def test_rename(self, ssn_relation):
        renamed = algebra.rename(ssn_relation, {"NAME": "PERSON"})
        assert renamed.attributes == ("SSN", "PERSON")

    def test_self_join_example_23(self, ssn_database):
        """Example 2.3: the FD-violation query returns exactly {j→7, b→7}."""
        relation = ssn_database.relation("R")
        joined = algebra.join(
            relation,
            relation,
            (attr("1.SSN") == attr("2.SSN")) & (attr("1.NAME") != attr("2.NAME")),
            left_prefix="1.",
            right_prefix="2.",
        )
        violation = algebra.project_to_wsset(joined)
        assert violation == ssn_database.relation("R").descriptors_for_values((7, "John")).intersect(
            ssn_database.relation("R").descriptors_for_values((7, "Bill"))
        )
        assert violation == violation.__class__([{"j": 7, "b": 7}])

    def test_join_requires_disjoint_schemas(self, ssn_relation):
        with pytest.raises(SchemaError):
            algebra.join(ssn_relation, ssn_relation)

    def test_product_descriptor_consistency(self, figure2_world_table):
        left = URelation("L", ("A",))
        left.add({"j": 1}, ("a",))
        right = URelation("R", ("B",))
        right.add({"j": 7}, ("b",))
        right.add({"b": 4}, ("c",))
        result = algebra.product(left, right)
        # {j→1} is inconsistent with {j→7}, so only the {b→4} row combines.
        assert len(result) == 1
        assert result.rows[0].descriptor == WSDescriptor({"j": 1, "b": 4})

    def test_equijoin_matches_nested_loop_join(self, ssn_relation):
        left = ssn_relation.prefixed("l_")
        right = ssn_relation.prefixed("r_")
        hashed = algebra.equijoin(left, right, [("l_SSN", "r_SSN")])
        nested = algebra.join(left, right, attr("l_SSN") == attr("r_SSN"))
        def key(row):
            return (repr(row.descriptor), row.values)

        assert sorted(hashed, key=key) == sorted(nested, key=key)

    def test_union_and_schema_check(self, ssn_relation):
        doubled = algebra.union(ssn_relation, ssn_relation)
        assert len(doubled) == 8
        with pytest.raises(SchemaError):
            algebra.union(ssn_relation, algebra.project(ssn_relation, ["SSN"]))

    def test_difference_per_world_semantics(self, ssn_database):
        relation = ssn_database.relation("R")
        bills = algebra.select(relation, attr("NAME") == "Bill")
        difference = algebra.difference(relation, bills, ssn_database.world_table)
        for world in ssn_database.world_table.iter_worlds():
            expected = [values for values in relation.in_world(world) if values[1] != "Bill"]
            assert sorted(difference.in_world(world)) == sorted(expected)

    def test_collapse_duplicates(self, ssn_relation):
        doubled = algebra.union(ssn_relation, ssn_relation)
        assert len(algebra.collapse_duplicates(doubled)) == 4


class TestAlgebraCommutesWithWorlds:
    """σ and ⋈ on the representation agree with per-world evaluation."""

    @pytest.mark.parametrize("seed", range(5))
    def test_selection_commutes(self, seed):
        database = random_attribute_level_database(random.Random(seed))
        relation = database.relation("R")
        predicate = attr("VALUE") >= 2
        selected = algebra.select(relation, predicate)
        for world in database.world_table.iter_worlds():
            expected = [values for values in relation.in_world(world) if values[1] >= 2]
            assert sorted(selected.in_world(world)) == sorted(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_join_commutes(self, seed):
        database = random_attribute_level_database(random.Random(100 + seed))
        relation = database.relation("R")
        left = relation.prefixed("l_")
        right = relation.prefixed("r_")
        joined = algebra.join(left, right, attr("l_VALUE") == attr("r_VALUE"))
        for world in database.world_table.iter_worlds():
            rows = relation.in_world(world)
            expected = sorted(
                a + b for a in rows for b in rows if a[1] == b[1]
            )
            assert sorted(joined.in_world(world)) == expected
