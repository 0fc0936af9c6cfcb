"""Translation of parsed SQL into relational-algebra plans on U-relations.

The planner binds each FROM-list entry to a U-relation whose attributes are
prefixed with the binding name (``c.custkey`` style), resolves unqualified
column references (they must be unambiguous across the FROM list), translates
the WHERE clause into a :class:`~repro.db.predicates.Predicate`, and builds the
answer U-relation with consistency-aware products and selections.

A binding named by a top-level ``attr = constant`` conjunct starts from the
rows of the relation's equality index (``URelation.rows_where``), not from
the whole relation.  Multi-table FROM lists are joined greedily along
``a.x = b.y`` conjuncts via :func:`repro.db.algebra.equijoin` (consuming
them), with the naive cross product for tables no equality reaches.
Conjuncts not consumed by a join — ``attr = constant`` included — are applied
as one residual selection afterwards, so the answer relation (rows and their
order) is that of the paper's literal translation, selection over the cross
product of all bindings, only cheaper to build.
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


@dataclass
class Plan:
    """A planned SELECT: the joined/filtered relation and what to output."""

    relation: URelation
    output_columns: tuple[str, ...]
    conf_calls: tuple[ConfCall, ...]
    column_labels: tuple[str, ...]
    is_boolean: bool


def plan_select(statement: SelectStatement, database: "ProbabilisticDatabase") -> Plan:
    """Plan a SELECT statement against ``database``."""
    scope = _Scope(statement, database)
    predicate = translate_condition(statement.where, scope) if statement.where else None
    conjuncts = [] if predicate is None else _flatten_conjuncts(predicate)
    scope.bind_rows(conjuncts)
    if len(scope.bindings) > 1 and predicate is not None:
        relation, residual = _equijoin_plan(scope, conjuncts)
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
        self.bases: dict[str, URelation] = {}
        # binding -> prefixed relation; schema only until bind_rows().
        self.bindings: dict[str, URelation] = {}
        for table in statement.tables:
            if table.binding in self.bindings:
                raise QueryError(f"duplicate table binding {table.binding!r}")
            base = self.bases[table.binding] = database.relation(table.name)
            self.bindings[table.binding] = base.prefixed(f"{table.binding}.", rows=())

    def bind_rows(self, conjuncts: list[Predicate]) -> None:
        """Fill each binding with its base rows, narrowed by an equality index.

        A binding's first ``attr = constant`` conjunct (either orientation)
        that :meth:`URelation.rows_where` can serve selects its rows; the
        conjunct stays in the residual.
        """
        for binding, base in self.bases.items():
            rows = None
            for conjunct in conjuncts:
                name, value = _constant_equality(conjunct)
                if self.bindings[binding].has_attribute(name):
                    rows = base.rows_where(name[len(binding) + 1 :], value)
                    if rows is not None:
                        break
            self.bindings[binding] = base.prefixed(f"{binding}.", rows=rows)

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


def _constant_equality(conjunct: Predicate) -> tuple[str | None, object]:
    """``(attribute, value)`` if ``conjunct`` is ``attribute = value``, either way round."""
    if isinstance(conjunct, AttributeComparison) and conjunct.operator == "=":
        sides = {type(side): side for side in (conjunct.left, conjunct.right)}
        if sides.keys() == {AttributeReference, Constant}:
            return sides[AttributeReference].name, sides[Constant].value
    return None, None


def _equijoin_plan(
    scope: _Scope, conjuncts: list[Predicate]
) -> tuple[URelation, Predicate | None]:
    """Join the FROM list greedily along ``a.x = b.y`` conjuncts.

    Returns the joined relation and the residual predicate still to apply
    (``None`` when every conjunct was consumed by a join).  Equality
    conjuncts between attributes of two *different* bindings drive
    :func:`repro.db.algebra.equijoin`; everything else — and equalities whose
    bindings could not be connected in time — stays in the residual, so the
    result is value- and descriptor-identical to cross-product-then-select.
    """
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
