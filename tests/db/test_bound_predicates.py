"""Bound predicates against a dict-per-row oracle.

Selections, theta-joins and denial constraints test value tuples through
:meth:`Predicate.bind`, with attribute names resolved to positions once.
These properties hold them to the evaluation binding replaced — build an
``attribute -> value`` dict for every row and interpret the predicate tree
on it — for random ``And`` / ``Or`` / ``Not`` / comparison trees over random
relations: the same rows, in the same order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.wsset import WSSet
from repro.db import algebra
from repro.db.constraints import DenialConstraint
from repro.db.database import ProbabilisticDatabase
from repro.db.predicates import (
    And,
    AttributeComparison,
    AttributeReference,
    Constant,
    Not,
    Or,
    TruePredicate,
    attr,
)
from repro.db.urelation import URelation

MAX_EXAMPLES = 200
#: Attribute -> value type; comparisons only ever pair operands of one type.
SCHEMA = {"A": int, "B": int, "C": str}
VALUES = {int: st.integers(0, 3), str: st.sampled_from("xyz")}
VARIABLES = tuple("uvwxyz")
DOMAIN = (1, 2, 3)
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")


# ----------------------------------------------------------------------
# The oracle: one dict per row, the predicate tree interpreted on it
# ----------------------------------------------------------------------
def holds(predicate, row: dict) -> bool:
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, And):
        return all(holds(operand, row) for operand in predicate.operands)
    if isinstance(predicate, Or):
        return any(holds(operand, row) for operand in predicate.operands)
    if isinstance(predicate, Not):
        return not holds(predicate.operand, row)
    left, right = (
        row[side.name] if isinstance(side, AttributeReference) else side.value
        for side in (predicate.left, predicate.right)
    )
    return {
        "=": left == right,
        "!=": left != right,
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
    }[predicate.operator]


def oracle_select(relation, predicate) -> list:
    return [
        row
        for row in relation
        if holds(predicate, dict(zip(relation.attributes, row.values)))
    ]


def oracle_join(left, right, predicate) -> list:
    rows = []
    for left_row in left:
        for right_row in right:
            combined = left_row.descriptor.intersect(right_row.descriptor)
            if combined is None:
                continue
            row = dict(zip(left.attributes, left_row.values))
            row.update(zip(right.attributes, right_row.values))
            if holds(predicate, row):
                rows.append((combined, left_row.values + right_row.values))
    return rows


def oracle_violations(relations, predicate, allow_same_tuple) -> list:
    found = []

    def search(position, row, descriptor, chosen):
        if position == len(relations):
            if holds(predicate, row):
                found.append(descriptor)
            return
        relation = relations[position]
        for index, tuple_ in enumerate(relation):
            if not allow_same_tuple and (relation.name, index) in chosen:
                continue
            combined = (
                tuple_.descriptor
                if descriptor is None
                else descriptor.intersect(tuple_.descriptor)
            )
            if combined is None:
                continue
            extended = dict(row)
            for attribute, value in zip(relation.attributes, tuple_.values):
                extended[f"{position + 1}.{attribute}"] = value
            search(position + 1, extended, combined, chosen + [(relation.name, index)])

    search(0, {}, None, [])
    return found


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def relations(draw, name: str) -> URelation:
    relation = URelation(name, tuple(SCHEMA))
    for _ in range(draw(st.integers(0, 6))):
        descriptor = draw(
            st.dictionaries(
                st.sampled_from(VARIABLES), st.sampled_from(DOMAIN), max_size=2
            )
        )
        relation.add(descriptor, tuple(draw(VALUES[kind]) for kind in SCHEMA.values()))
    return relation


@st.composite
def comparisons(draw, columns: dict) -> AttributeComparison:
    kind = draw(st.sampled_from((int, str)))
    names = [name for name, column_kind in columns.items() if column_kind is kind]
    operand = st.one_of(st.sampled_from(names).map(attr), VALUES[kind].map(Constant))
    return AttributeComparison(
        draw(operand), draw(st.sampled_from(OPERATORS)), draw(operand)
    )


def predicates(columns: dict):
    operands = lambda children: st.lists(children, min_size=1, max_size=3)  # noqa: E731
    return st.recursive(
        comparisons(columns) | st.just(TruePredicate()),
        lambda children: st.one_of(
            operands(children).map(lambda parts: And(tuple(parts))),
            operands(children).map(lambda parts: Or(tuple(parts))),
            children.map(Not),
        ),
        max_leaves=6,
    )


def prefixed(prefix: str) -> dict:
    return {f"{prefix}{name}": kind for name, kind in SCHEMA.items()}


def database_of(*relation_list: URelation) -> ProbabilisticDatabase:
    database = ProbabilisticDatabase()
    for variable in VARIABLES:
        database.world_table.add_variable(variable, dict.fromkeys(DOMAIN, 1 / 3))
    for relation in relation_list:
        database.add_relation(relation)
    return database


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(relation=relations("R"), predicate=predicates(SCHEMA))
def test_select_matches_the_dict_oracle(relation, predicate):
    assert list(algebra.select(relation, predicate)) == oracle_select(
        relation, predicate
    )


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    left=relations("L"),
    right=relations("R"),
    predicate=predicates(prefixed("l.") | prefixed("r.")),
)
def test_join_matches_the_dict_oracle(left, right, predicate):
    joined = algebra.join(left, right, predicate, left_prefix="l.", right_prefix="r.")
    expected = oracle_join(left.prefixed("l."), right.prefixed("r."), predicate)
    assert [(row.descriptor, row.values) for row in joined] == expected


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    data=st.data(),
    names=st.sampled_from([("S",), ("S", "T"), ("S", "S"), ("T", "S", "T")]),
    allow_same_tuple=st.booleans(),
)
def test_denial_constraint_matches_the_dict_oracle(data, names, allow_same_tuple):
    database = database_of(data.draw(relations("S")), data.draw(relations("T")))
    columns = {}
    for position in range(len(names)):
        columns |= prefixed(f"{position + 1}.")
    predicate = data.draw(predicates(columns))
    constraint = DenialConstraint(names, predicate, allow_same_tuple)
    expected = oracle_violations(
        [database.relation(name) for name in names], predicate, allow_same_tuple
    )
    assert list(constraint.violation_wsset(database)) == list(WSSet(expected))
