"""Translation of parsed SQL into relational-algebra plans on U-relations.

The planner binds each FROM-list entry to a U-relation whose attributes are
prefixed with the binding name (``c.custkey`` style), resolves unqualified
column references (they must be unambiguous across the FROM list), translates
the WHERE clause into a :class:`~repro.db.predicates.Predicate`, and builds the
answer U-relation with consistency-aware products and selections.

Multi-table FROM lists are joined with a hash-based equi-join when the WHERE
clause supplies ``a.x = b.y`` conjuncts: the planner splits the translated
predicate into top-level conjuncts, greedily joins tables connected by
equality conjuncts via :func:`repro.db.algebra.equijoin` (consuming those
conjuncts), and falls back to the naive cross product for tables no equality
reaches.  Conjuncts not consumed by a join — inequalities, disjunctions,
equalities only applicable once a third table arrived — are applied as one
residual selection afterwards, so the answer relation is identical to the
historical cross-join-then-select plan, only cheaper to build.  Setting
:data:`HASH_EQUIJOIN` to ``False`` restores the naive plan (ablations,
benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.db import algebra
from repro.db.predicates import (
    And,
    AttributeComparison,
    AttributeReference,
    Constant,
    Not,
    Or,
    Predicate,
    TruePredicate,
    attr,
)
from repro.db.urelation import URelation
from repro.errors import QueryError
from repro.sql.ast_nodes import (
    Between,
    BooleanExpression,
    ColumnRef,
    Comparison,
    ConfCall,
    Literal,
    SelectStatement,
    Star,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import ProbabilisticDatabase

#: Default for the hash-based equi-join path; ``False`` restores the naive
#: cross-product plan (kept for ablations and the planner benchmark/test).
HASH_EQUIJOIN = True


@dataclass
class Plan:
    """A planned SELECT: the joined/filtered relation and what to output."""

    relation: URelation
    output_columns: tuple[str, ...]
    conf_calls: tuple[ConfCall, ...]
    column_labels: tuple[str, ...]
    is_boolean: bool


def plan_select(
    statement: SelectStatement,
    database: "ProbabilisticDatabase",
    *,
    hash_join: bool | None = None,
) -> Plan:
    """Plan a SELECT statement against ``database``.

    ``hash_join`` overrides :data:`HASH_EQUIJOIN` for this one plan.
    """
    scope = _Scope(statement, database)
    predicate = translate_condition(statement.where, scope) if statement.where else None
    use_hash = HASH_EQUIJOIN if hash_join is None else hash_join
    if use_hash and len(scope.bindings) > 1 and predicate is not None:
        relation, residual = _equijoin_plan(scope, predicate)
    else:
        relation, residual = scope.joined_relation(), predicate
    if residual is not None:
        relation = algebra.select(relation, residual)

    conf_calls = statement.conf_columns()
    output_columns, labels = scope.output_columns()
    return Plan(
        relation=relation,
        output_columns=output_columns,
        conf_calls=conf_calls,
        column_labels=labels,
        is_boolean=statement.is_boolean,
    )


class _Scope:
    """Name resolution for one SELECT: bindings, prefixed attributes, outputs."""

    def __init__(self, statement: SelectStatement, database: "ProbabilisticDatabase") -> None:
        self.statement = statement
        self.database = database
        self.bindings: dict[str, URelation] = {}
        for table in statement.tables:
            if table.binding in self.bindings:
                raise QueryError(f"duplicate table binding {table.binding!r}")
            base = database.relation(table.name)
            self.bindings[table.binding] = base.prefixed(f"{table.binding}.")

    def joined_relation(self) -> URelation:
        relations = list(self.bindings.values())
        joined = relations[0]
        for relation in relations[1:]:
            joined = algebra.product(joined, relation)
        return joined

    def resolve(self, column: ColumnRef) -> str:
        """Resolve a column reference to a prefixed attribute name."""
        if column.qualifier is not None:
            candidate = f"{column.qualifier}.{column.name}"
            for relation in self.bindings.values():
                if relation.has_attribute(candidate):
                    return candidate
            raise QueryError(f"unknown column {column.display()!r}")
        matches = []
        for binding, relation in self.bindings.items():
            candidate = f"{binding}.{column.name}"
            if relation.has_attribute(candidate):
                matches.append(candidate)
        if not matches:
            raise QueryError(f"unknown column {column.display()!r}")
        if len(matches) > 1:
            raise QueryError(
                f"ambiguous column {column.display()!r}: matches {', '.join(matches)}"
            )
        return matches[0]

    def output_columns(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The prefixed attribute names to project on and their display labels."""
        columns = self.statement.columns
        if isinstance(columns, Star):
            names = tuple(
                attribute
                for relation in self.bindings.values()
                for attribute in relation.attributes
            )
            return names, names
        resolved: list[str] = []
        labels: list[str] = []
        for column in columns:
            expression = column.expression
            if isinstance(expression, ConfCall):
                for argument in expression.arguments:
                    name = self.resolve(argument)
                    if name not in resolved:
                        resolved.append(name)
                        labels.append(column.alias or argument.display())
                continue
            if isinstance(expression, Literal):
                continue
            name = self.resolve(expression)
            resolved.append(name)
            labels.append(column.alias or expression.display())
        return tuple(resolved), tuple(labels)


def _equijoin_plan(
    scope: _Scope, predicate: Predicate
) -> tuple[URelation, Predicate | None]:
    """Join the FROM list greedily along ``a.x = b.y`` conjuncts.

    Returns the joined relation and the residual predicate still to apply
    (``None`` when every conjunct was consumed by a join).  Equality
    conjuncts between attributes of two *different* bindings drive
    :func:`repro.db.algebra.equijoin`; everything else — and equalities whose
    bindings could not be connected in time — stays in the residual, so the
    result is value- and descriptor-identical to cross-product-then-select.
    """
    conjuncts = _flatten_conjuncts(predicate)
    owner = {
        attribute: binding
        for binding, relation in scope.bindings.items()
        for attribute in relation.attributes
    }
    # conjunct index -> (binding_a, attribute_a, binding_b, attribute_b)
    equalities: dict[int, tuple[str, str, str, str]] = {}
    for index, conjunct in enumerate(conjuncts):
        if not (
            isinstance(conjunct, AttributeComparison)
            and conjunct.operator == "="
            and isinstance(conjunct.left, AttributeReference)
            and isinstance(conjunct.right, AttributeReference)
        ):
            continue
        left, right = conjunct.left.name, conjunct.right.name
        if owner[left] != owner[right]:
            equalities[index] = (owner[left], left, owner[right], right)

    consumed: set[int] = set()
    joined: URelation | None = None
    joined_bindings: set[str] = set()
    pending = list(scope.bindings)
    while pending:
        if joined is None:
            binding = pending.pop(0)
            joined, joined_bindings = scope.bindings[binding], {binding}
            continue
        # Find a pending binding connected to the joined prefix by at least
        # one unconsumed equality; collect *all* such equalities for it.
        connected: str | None = None
        pairs: list[tuple[str, str]] = []
        matching: list[int] = []
        for binding in pending:
            for index, (a, left, b, right) in equalities.items():
                if index in consumed:
                    continue
                if a in joined_bindings and b == binding:
                    pairs.append((left, right))
                    matching.append(index)
                elif b in joined_bindings and a == binding:
                    pairs.append((right, left))
                    matching.append(index)
            if pairs:
                connected = binding
                break
        if connected is not None:
            pending.remove(connected)
            joined = algebra.equijoin(joined, scope.bindings[connected], pairs)
            joined_bindings.add(connected)
            consumed.update(matching)
        else:
            binding = pending.pop(0)
            joined = algebra.product(joined, scope.bindings[binding])
            joined_bindings.add(binding)

    residual = [c for index, c in enumerate(conjuncts) if index not in consumed]
    if not residual:
        return joined, None
    if len(residual) == 1:
        return joined, residual[0]
    return joined, And(tuple(residual))


def _flatten_conjuncts(predicate: Predicate) -> list[Predicate]:
    """Top-level conjuncts of a predicate (nested ``And`` nodes flattened)."""
    if isinstance(predicate, And):
        flattened: list[Predicate] = []
        for operand in predicate.operands:
            flattened.extend(_flatten_conjuncts(operand))
        return flattened
    return [predicate]


def translate_condition(condition, scope: _Scope) -> Predicate:
    """Translate a parsed WHERE condition into a row predicate."""
    if condition is None:
        return TruePredicate()
    if isinstance(condition, Literal):
        return TruePredicate() if condition.value else _FalsePredicate()
    if isinstance(condition, Comparison):
        return AttributeComparison(
            _operand(condition.left, scope),
            condition.operator,
            _operand(condition.right, scope),
        )
    if isinstance(condition, Between):
        operand = condition.operand
        low, high = condition.low, condition.high
        return And(
            (
                AttributeComparison(_operand(operand, scope), ">=", _operand(low, scope)),
                AttributeComparison(_operand(operand, scope), "<=", _operand(high, scope)),
            )
        )
    if isinstance(condition, BooleanExpression):
        translated = tuple(
            translate_condition(part, scope) for part in condition.operands
        )
        if condition.operator == "and":
            return And(translated)
        if condition.operator == "or":
            return Or(translated)
        return Not(translated[0])
    raise QueryError(f"unsupported condition node {condition!r}")


def _operand(node, scope: _Scope):
    if isinstance(node, ColumnRef):
        return attr(scope.resolve(node))
    if isinstance(node, Literal):
        return Constant(node.value)
    raise QueryError(f"unsupported operand {node!r}")


class _FalsePredicate(Predicate):
    """The always-false predicate (``where false``)."""

    def bind(self, attributes):
        return lambda values: False

    def attributes(self) -> frozenset[str]:
        return frozenset()
