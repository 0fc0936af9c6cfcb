"""Predicates over U-relation rows, used by selections and join conditions.

A predicate is *bound* to a schema once (:meth:`Predicate.bind`): attribute
names are resolved to tuple positions up front, and the result is a plain
test of value tuples, so a selection, theta-join or constraint check scans
rows by position without building a mapping per row.  A small
expression-builder (:func:`attr`) lets callers write the conditions of the
paper's queries naturally::

    attr("mktsegment") == "BUILDING"
    attr("c_custkey") == attr("o_custkey")
    (attr("discount") >= 0.05) & (attr("discount") <= 0.08)
"""

from __future__ import annotations

import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Callable

from repro.errors import QueryError, UnknownAttributeError

Row = Mapping[str, object]
#: A bound predicate: a test of one value tuple in the bound schema's order.
Test = Callable[[tuple], bool]

_OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Predicate:
    """Base class of all row predicates."""

    def bind(self, attributes: Sequence[str]) -> Test:
        """A test of value tuples laid out as ``attributes``.

        Names are resolved to positions here, once; an attribute missing
        from ``attributes`` raises :class:`UnknownAttributeError` at bind
        time, whether or not any row is ever tested.
        """
        raise NotImplementedError

    def evaluate(self, row: Row) -> bool:
        """True iff the predicate holds on an ``attribute -> value`` mapping."""
        return self.bind(tuple(row))(tuple(row.values()))

    def attributes(self) -> frozenset[str]:
        """All attribute names referenced by the predicate."""
        raise NotImplementedError

    # Boolean combinators — usable both as methods and as operators.
    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate (selection with it is the identity)."""

    def bind(self, attributes: Sequence[str]) -> Test:
        return lambda values: True

    def attributes(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class AttributeReference:
    """A reference to an attribute, used as either side of a comparison."""

    name: str

    def position(self, attributes: Sequence[str]) -> int:
        """The index of this attribute in ``attributes``."""
        try:
            return attributes.index(self.name)
        except ValueError:
            raise UnknownAttributeError(self.name, tuple(attributes)) from None

    # Comparison operators build AttributeComparison predicates.
    def __eq__(self, other: object):  # type: ignore[override]
        return AttributeComparison(self, "=", _as_operand(other))

    def __ne__(self, other: object):  # type: ignore[override]
        return AttributeComparison(self, "!=", _as_operand(other))

    def __lt__(self, other: object):
        return AttributeComparison(self, "<", _as_operand(other))

    def __le__(self, other: object):
        return AttributeComparison(self, "<=", _as_operand(other))

    def __gt__(self, other: object):
        return AttributeComparison(self, ">", _as_operand(other))

    def __ge__(self, other: object):
        return AttributeComparison(self, ">=", _as_operand(other))

    def between(self, low: object, high: object) -> Predicate:
        """Inclusive range predicate, as in the paper's Q2 (``BETWEEN``)."""
        return And((self >= low, self <= high))

    def is_in(self, values) -> Predicate:
        """Membership predicate (disjunction of equalities)."""
        options = tuple(values)
        if not options:
            raise QueryError("IN predicate needs at least one value")
        return Or(tuple(self == value for value in options))

    def __hash__(self) -> int:
        return hash(("AttributeReference", self.name))


@dataclass(frozen=True)
class Constant:
    """A literal operand of a comparison."""

    value: object


def _as_operand(value: object):
    """Coerce the right-hand side of a comparison into an operand object."""
    if isinstance(value, (AttributeReference, Constant)):
        return value
    return Constant(value)


def _mismatch(left: object, symbol: str, right: object) -> QueryError:
    return QueryError(
        f"cannot compare {type(left).__name__} {symbol} {type(right).__name__}"
    )


@dataclass(frozen=True)
class AttributeComparison(Predicate):
    """A comparison ``left op right`` where each side is an attribute or constant."""

    left: AttributeReference | Constant
    operator: str
    right: AttributeReference | Constant

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise QueryError(f"unsupported comparison operator {self.operator!r}")

    def bind(self, attributes: Sequence[str]) -> Test:
        # Each side becomes a tuple position or stays a Constant.  Operands
        # of incomparable types raise QueryError, chained from the TypeError;
        # the try blocks cost nothing while no row raises.
        symbol, compare = self.operator, _OPERATORS[self.operator]
        left, right = (
            side.position(attributes) if isinstance(side, AttributeReference) else side
            for side in (self.left, self.right)
        )
        if isinstance(left, int) and isinstance(right, Constant):
            constant = right.value

            def test(values: tuple) -> bool:
                try:
                    return compare(values[left], constant)
                except TypeError as error:
                    raise _mismatch(values[left], symbol, constant) from error

        elif isinstance(left, int):
            def test(values: tuple) -> bool:
                try:
                    return compare(values[left], values[right])
                except TypeError as error:
                    raise _mismatch(values[left], symbol, values[right]) from error

        else:  # a constant on the left
            constant = left.value

            def test(values: tuple) -> bool:
                other = right.value if isinstance(right, Constant) else values[right]
                try:
                    return compare(constant, other)
                except TypeError as error:
                    raise _mismatch(constant, symbol, other) from error

        return test

    def attributes(self) -> frozenset[str]:
        names = set()
        for side in (self.left, self.right):
            if isinstance(side, AttributeReference):
                names.add(side.name)
        return frozenset(names)


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    operands: tuple[Predicate, ...]

    def bind(self, attributes: Sequence[str]) -> Test:
        tests = [operand.bind(attributes) for operand in self.operands]
        if len(tests) == 2:
            first, second = tests
            return lambda values: first(values) and second(values)
        return lambda values: all(test(values) for test in tests)

    def attributes(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for operand in self.operands:
            result |= operand.attributes()
        return result


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    operands: tuple[Predicate, ...]

    def bind(self, attributes: Sequence[str]) -> Test:
        tests = [operand.bind(attributes) for operand in self.operands]
        return lambda values: any(test(values) for test in tests)

    def attributes(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for operand in self.operands:
            result |= operand.attributes()
        return result


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate (usable on selections; not a full complement on worlds)."""

    operand: Predicate

    def bind(self, attributes: Sequence[str]) -> Test:
        test = self.operand.bind(attributes)
        return lambda values: not test(values)

    def attributes(self) -> frozenset[str]:
        return self.operand.attributes()


def attr(name: str) -> AttributeReference:
    """Reference an attribute in a predicate expression: ``attr("SSN") == 7``."""
    return AttributeReference(name)


#: Alias of :func:`attr` for readers who prefer SQL-ish naming.
col = attr


def equality_join_predicate(pairs) -> Predicate:
    """Conjunction of attribute equalities, e.g. for equi-joins.

    ``pairs`` is an iterable of ``(left_attribute, right_attribute)`` names.
    """
    comparisons = tuple(attr(left) == attr(right) for left, right in pairs)
    if not comparisons:
        return TruePredicate()
    if len(comparisons) == 1:
        return comparisons[0]
    return And(comparisons)
