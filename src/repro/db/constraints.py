"""Compiling integrity constraints into condition ws-sets (paper, Example 2.3).

Conditioning scenarios typically start from a constraint such as a functional
dependency ("social security numbers are unique").  A constraint is compiled
in two steps:

1. its **violation ws-set**: the descriptors of all combinations of tuples
   that witness a violation (computed with consistency-aware self-joins);
2. its **condition ws-set**: the complement of the violation ws-set with
   respect to the full world-set, computed with the ws-set difference of
   Section 3.2 — exactly the construction of Example 2.3.

The condition ws-set is what :meth:`ProbabilisticDatabase.assert_condition`
conditions on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.wsset import WSSet
from repro.db.predicates import Predicate
from repro.db.urelation import URelation

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import ProbabilisticDatabase


class Constraint:
    """Base class of integrity constraints usable as conditioning conditions."""

    def violation_wsset(self, database: "ProbabilisticDatabase") -> WSSet:
        """The ws-set of worlds in which the constraint is violated."""
        raise NotImplementedError

    def condition_wsset(self, database: "ProbabilisticDatabase") -> WSSet:
        """The ws-set of worlds in which the constraint *holds*.

        Computed as the complement of the violation ws-set; when there are no
        violations this is the universal ws-set ``{∅}``.
        """
        violations = self.violation_wsset(database)
        if violations.is_empty:
            return WSSet.universal()
        return violations.complement(database.world_table)

    def holds_certainly(self, database: "ProbabilisticDatabase") -> bool:
        """True iff the constraint holds in every possible world."""
        return self.violation_wsset(database).is_empty

    def describe(self) -> str:
        """A one-line human-readable description of the constraint."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


@dataclass(frozen=True)
class EqualityGeneratingDependency(Constraint):
    """Two tuples agreeing on some attributes must agree on others.

    A violation is a pair of tuples — one from ``left_relation``, one from
    ``right_relation`` (often the same relation) — whose descriptors are
    consistent, that agree on every pair in ``equal_on`` but differ on at
    least one pair in ``must_agree_on``.
    """

    left_relation: str
    right_relation: str
    equal_on: tuple[tuple[str, str], ...]
    must_agree_on: tuple[tuple[str, str], ...]

    def violation_wsset(self, database: "ProbabilisticDatabase") -> WSSet:
        left = database.relation(self.left_relation)
        right = database.relation(self.right_relation)
        same_relation = self.left_relation == self.right_relation

        left_equal = [left.attribute_index(a) for a, _ in self.equal_on]
        right_equal = [right.attribute_index(b) for _, b in self.equal_on]
        left_agree = [left.attribute_index(a) for a, _ in self.must_agree_on]
        right_agree = [right.attribute_index(b) for _, b in self.must_agree_on]

        # Hash the right-hand side on the equality attributes so that only
        # candidate pairs are examined.
        right_index: dict[tuple, list[tuple[int, object]]] = {}
        for j, row in enumerate(right):
            key = tuple(row.values[i] for i in right_equal)
            right_index.setdefault(key, []).append((j, row))

        violations = []
        for i, left_row in enumerate(left):
            key = tuple(left_row.values[i_] for i_ in left_equal)
            for j, right_row in right_index.get(key, ()):
                if same_relation and i == j:
                    continue
                agrees = all(
                    left_row.values[a] == right_row.values[b]
                    for a, b in zip(left_agree, right_agree)
                )
                if agrees:
                    continue
                combined = left_row.descriptor.intersect(right_row.descriptor)
                if combined is not None:
                    violations.append(combined)
        return WSSet(violations)

    def describe(self) -> str:
        equal = ", ".join(f"{a}={b}" for a, b in self.equal_on)
        agree = ", ".join(f"{a}={b}" for a, b in self.must_agree_on)
        return (
            f"{self.left_relation} x {self.right_relation}: if {equal} then {agree}"
        )


class FunctionalDependency(EqualityGeneratingDependency):
    """A functional dependency ``determinants -> dependents`` on one relation.

    Example: ``FunctionalDependency("R", ["SSN"], ["NAME"])`` expresses the
    paper's "social security numbers are unique" constraint SSN → NAME.
    """

    def __init__(
        self,
        relation: str,
        determinants: Sequence[str],
        dependents: Sequence[str],
    ) -> None:
        super().__init__(
            left_relation=relation,
            right_relation=relation,
            equal_on=tuple((a, a) for a in determinants),
            must_agree_on=tuple((a, a) for a in dependents),
        )

    @property
    def relation(self) -> str:
        return self.left_relation

    @property
    def determinants(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.equal_on)

    @property
    def dependents(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.must_agree_on)

    def describe(self) -> str:
        return (
            f"{self.relation}: {', '.join(self.determinants)} -> "
            f"{', '.join(self.dependents)}"
        )


class KeyConstraint(FunctionalDependency):
    """A key constraint: the key attributes determine the whole tuple."""

    def __init__(
        self, relation: str, key: Sequence[str], attributes: Sequence[str]
    ) -> None:
        dependents = [a for a in attributes if a not in set(key)]
        super().__init__(relation, key, dependents)

    @classmethod
    def for_relation(cls, relation: URelation, key: Sequence[str]) -> "KeyConstraint":
        """Build a key constraint using the relation's own schema."""
        return cls(relation.name, key, relation.attributes)

    def describe(self) -> str:
        return f"{self.relation}: key({', '.join(self.determinants)})"


@dataclass(frozen=True)
class DenialConstraint(Constraint):
    """A forbidden pattern over ``k`` (not necessarily distinct) relations.

    A violation is any combination of tuples ``t_1 ∈ R_1, ..., t_k ∈ R_k``
    with pairwise-consistent descriptors whose combined row satisfies the
    predicate.  Attribute names in the predicate are prefixed ``"1."``,
    ``"2."``, ... by position, mirroring the notation of Example 2.3
    (``1.SSN = 2.SSN ∧ 1.NAME ≠ 2.NAME``).
    """

    relations: tuple[str, ...]
    predicate: Predicate
    allow_same_tuple: bool = field(default=False)

    def violation_wsset(self, database: "ProbabilisticDatabase") -> WSSet:
        relations = [database.relation(name) for name in self.relations]
        test = self.predicate.bind(
            [
                f"{position + 1}.{attribute}"
                for position, relation in enumerate(relations)
                for attribute in relation.attributes
            ]
        )
        violations = []

        # Depth-first over one tuple per relation, pruned on inconsistent
        # descriptors; ``values`` is the combined row in the bound layout.
        def search(position, values, descriptor, chosen) -> None:
            if position == len(relations):
                if test(values):
                    violations.append(descriptor)
                return
            relation = relations[position]
            for index, row in enumerate(relation):
                if not self.allow_same_tuple and (relation.name, index) in chosen:
                    continue
                combined = (
                    row.descriptor
                    if descriptor is None
                    else descriptor.intersect(row.descriptor)
                )
                if combined is not None:
                    picked = chosen + [(relation.name, index)]
                    search(position + 1, values + row.values, combined, picked)

        search(0, (), None, [])
        return WSSet(violations)

    def describe(self) -> str:
        return f"deny over ({', '.join(self.relations)})"


def condition_from_boolean_query(answer: URelation) -> WSSet:
    """The condition ws-set of a Boolean query given its answer U-relation.

    The Boolean query holds exactly in the worlds represented by the union of
    the answer tuples' descriptors, i.e. in ``π_∅`` of the answer.
    """
    return answer.descriptors()
