"""The probabilistic database facade (paper, Sections 2 and 5).

A :class:`ProbabilisticDatabase` bundles a world table with a set of named
U-relations and offers the operations the paper builds on:

* possible-world semantics (enumeration, instance distributions) for small
  databases — used by examples and as ground truth in tests;
* confidence computation (the ``conf()`` aggregate) through the exact engine;
* **conditioning**: ``assert_condition`` removes all worlds violating a
  condition (a ws-set, a Boolean-query answer, or an integrity constraint) and
  renormalises the database, materialising the posterior database for
  subsequent querying (Section 5).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.conditioning import ConditioningResult, condition_wsset
from repro.core.probability import ExactConfig, probability
from repro.core.wsset import WSSet
from repro.db.confidence import ConfidenceRow
from repro.db.constraints import Constraint
from repro.db.urelation import URelation, UTuple
from repro.db.world_table import WorldTable
from repro.errors import UnknownRelationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.session import AsyncSession, Session
    from repro.db.world_table import Value, Variable
else:
    Variable = object
    Value = object

#: A deterministic database instance: relation name -> sorted tuple of rows.
Instance = tuple[tuple[str, tuple[tuple, ...]], ...]


@dataclass
class ConditioningSummary:
    """Summary of one ``assert_condition`` operation on a database.

    ``rewritten_tuples`` counts the rows conditioning actually rewrote — the
    posterior rows that replace the rows sharing a variable with the
    condition — not the rows merely carried over (every other row is shared
    with the prior as it is).  ``new_variables`` are the variables the
    renormalisation created, ``dropped_variables`` those no U-relation
    references any more (simplification rule 1).
    """

    confidence: float
    new_variables: tuple = ()
    dropped_variables: tuple = ()
    rewritten_tuples: int = 0
    result: ConditioningResult | None = field(default=None, repr=False)


class ProbabilisticDatabase:
    """A world table plus a set of named U-relations.

    Examples
    --------
    >>> db = ProbabilisticDatabase()
    >>> db.world_table.add_variable("j", {1: 0.2, 7: 0.8})
    >>> db.world_table.add_variable("b", {4: 0.3, 7: 0.7})
    >>> r = db.create_relation("R", ("SSN", "NAME"))
    >>> r.add({"j": 1}, (1, "John")); r.add({"j": 7}, (7, "John"))
    >>> r.add({"b": 4}, (4, "Bill")); r.add({"b": 7}, (7, "Bill"))
    >>> db.world_count()
    4
    """

    def __init__(
        self,
        world_table: WorldTable | None = None,
        relations: Iterable[URelation] | None = None,
    ) -> None:
        self._world_table = world_table if world_table is not None else WorldTable()
        self._relations: dict[str, URelation] = {}
        if relations is not None:
            for relation in relations:
                self.add_relation(relation)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def world_table(self) -> WorldTable:
        """The world table ``W`` of this database."""
        return self._world_table

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of all U-relations, in insertion order."""
        return tuple(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relation(self, name: str) -> URelation:
        """The U-relation called ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def add_relation(self, relation: URelation) -> URelation:
        """Register a U-relation (its name must be new)."""
        if relation.name in self._relations:
            raise UnknownRelationError(
                f"relation {relation.name!r} already exists; use replace_relation"
            )
        self._relations[relation.name] = relation
        return relation

    def replace_relation(self, relation: URelation) -> URelation:
        """Register a U-relation, replacing any existing relation of the same name."""
        self._relations[relation.name] = relation
        return relation

    def create_relation(self, name: str, attributes: Sequence[str]) -> URelation:
        """Create, register, and return an empty U-relation."""
        return self.add_relation(URelation(name, attributes))

    def variables_in_use(self) -> frozenset[Variable]:
        """World-table variables referenced by at least one U-relation row."""
        used: set[Variable] = set()
        for relation in self._relations.values():
            used.update(relation.variables())
        return frozenset(used)

    def copy(self) -> "ProbabilisticDatabase":
        """An independent copy (rows are shared; they are immutable)."""
        return ProbabilisticDatabase(
            self._world_table.copy(),
            [relation.copy() for relation in self._relations.values()],
        )

    # ------------------------------------------------------------------
    # Possible-world semantics
    # ------------------------------------------------------------------
    def world_count(self) -> int:
        """The number of possible worlds defined by the world table."""
        return self._world_table.world_count()

    def possible_worlds(self) -> Iterator[tuple[dict, float, dict[str, list[tuple]]]]:
        """Iterate over ``(valuation, probability, instance)`` triples.

        ``instance`` maps each relation name to the list of value tuples
        present in that world.  Only usable for small world tables.
        """
        for world in self._world_table.iter_worlds():
            instance = {
                name: relation.in_world(world)
                for name, relation in self._relations.items()
            }
            yield world, self._world_table.world_probability(world), instance

    def instance_distribution(self) -> dict[Instance, float]:
        """The probability distribution over deterministic database instances.

        Distinct worlds containing exactly the same tuples are merged, which
        is the right notion of equality for validating conditioning
        (Theorem 5.3 is stated at the level of instances).
        """
        distribution: dict[Instance, float] = {}
        for _, world_probability, instance in self.possible_worlds():
            key = _canonical_instance(instance)
            distribution[key] = distribution.get(key, 0.0) + world_probability
        return distribution

    # ------------------------------------------------------------------
    # Confidence computation
    # ------------------------------------------------------------------
    def session(self, config: ExactConfig | None = None, **options) -> "Session":
        """A long-lived confidence :class:`~repro.db.session.Session`.

        The session owns one shared exact engine (interned representation,
        memo cache, budget) reused across all of its queries; see
        :mod:`repro.db.session` for the request/response interface, batching
        and the hybrid exact/approximate method.  Keyword options are
        forwarded to the :class:`~repro.db.session.Session` constructor.
        """
        from repro.db.session import Session

        return Session(self, config, **options)

    def async_session(self, config: ExactConfig | None = None, **options) -> "AsyncSession":
        """An :class:`~repro.db.session.AsyncSession` over a new session.

        The facade owns the session it wraps: closing it also releases the
        session's resources (e.g. the ``workers=N`` ⊗-component pool).
        """
        from repro.db.session import AsyncSession

        return AsyncSession(self.session(config, **options), owns_session=True)

    def confidence(
        self,
        target: "WSSet | URelation | str",
        config: ExactConfig | None = None,
    ) -> float:
        """Exact confidence of a ws-set, of a query answer, or of a named relation.

        For a relation (or relation name) this is the probability that the
        relation is nonempty, i.e. the confidence of its Boolean projection.
        """
        ws_set = self._as_wsset(target)
        return probability(ws_set, self._world_table, config)

    def tuple_confidences(
        self,
        target: "URelation | str",
        config: ExactConfig | None = None,
    ) -> list[ConfidenceRow]:
        """``conf()`` per distinct value tuple of a relation or query answer."""
        relation = self.relation(target) if isinstance(target, str) else target
        return self.session(config).confidence_batch(relation)

    # ------------------------------------------------------------------
    # Conditioning (Section 5)
    # ------------------------------------------------------------------
    def conditioned(
        self,
        condition: "WSSet | URelation | Constraint",
        config: ExactConfig | None = None,
        **conditioning_options,
    ) -> tuple["ProbabilisticDatabase", ConditioningSummary]:
        """The posterior database obtained by asserting ``condition``.

        The prior database is left untouched; a new database is returned in
        which all worlds violating the condition have been removed and the
        remaining world probabilities renormalised (Theorem 5.3).  The second
        component reports the confidence of the condition in the prior
        database and the variables created / dropped by the renormalisation.
        """
        ws_condition = self._as_condition(condition)
        # Only rows sharing a variable with the condition can change (the
        # top-level split of cond()); the relations' variable indexes find
        # them, every other row is shared with the posterior as it is.
        variables = ws_condition.variables()
        touched = {
            name: relation.rows_mentioning(variables)
            for name, relation in self._relations.items()
        }
        result = condition_wsset(
            ws_condition,
            [
                ((name, position), row.descriptor)
                for name, found in touched.items()
                for position, row in found
            ],
            self._world_table,
            config,
            **conditioning_options,
        )

        posterior = ProbabilisticDatabase()
        for name, relation in self._relations.items():
            posterior._relations[name] = relation.spliced(
                {
                    position: [
                        UTuple(descriptor, row.values)
                        for descriptor in result.rewritten[(name, position)]
                    ]
                    for position, row in touched[name]
                }
            )

        # Simplification rule 1: keep only the variables that some U-relation
        # still references; rule 2/3 were already applied inside cond().
        used = posterior.variables_in_use()
        delta, table = result.delta_world_table, self._world_table
        posterior._world_table = table.merged_with(delta, used)

        summary = ConditioningSummary(
            confidence=result.confidence,
            new_variables=tuple(delta.variables),
            dropped_variables=(
                *table.ordered(set(table) - used),
                *(variable for variable in delta.variables if variable not in used),
            ),
            rewritten_tuples=sum(len(v) for v in result.rewritten.values()),
            result=result,
        )
        return posterior, summary

    def assert_condition(
        self,
        condition: "WSSet | URelation | Constraint",
        config: ExactConfig | None = None,
        **conditioning_options,
    ) -> ConditioningSummary:
        """Assert ``condition`` in place (the ``assert[B]`` update of the paper).

        Equivalent to :meth:`conditioned` but this database itself becomes the
        posterior.  Returns the conditioning summary.
        """
        posterior, summary = self.conditioned(condition, config, **conditioning_options)
        self._world_table = posterior._world_table
        self._relations = posterior._relations
        return summary

    def posterior_confidence(
        self,
        event: "WSSet | URelation | str",
        condition: "WSSet | URelation | Constraint",
        config: ExactConfig | None = None,
    ) -> float:
        """``P(event | condition)`` via two confidence computations.

        This is the alternative formulation from the introduction of the
        paper (combining the results of two ``conf()`` queries) and does not
        materialise the conditioned database.
        """
        from repro.core.conditioning import posterior_probability

        return posterior_probability(
            self._as_wsset(event),
            self._as_condition(condition),
            self._world_table,
            config,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _as_wsset(self, target: "WSSet | URelation | str") -> WSSet:
        if isinstance(target, WSSet):
            return target
        if isinstance(target, URelation):
            return target.descriptors()
        if isinstance(target, str):
            return self.relation(target).descriptors()
        raise TypeError(f"cannot interpret {target!r} as a ws-set")

    def _as_condition(self, condition: "WSSet | URelation | Constraint") -> WSSet:
        if isinstance(condition, Constraint):
            return condition.condition_wsset(self)
        return self._as_wsset(condition)

    def __repr__(self) -> str:
        relations = ", ".join(
            f"{name}[{len(relation)}]" for name, relation in self._relations.items()
        )
        return (
            f"ProbabilisticDatabase({len(self._world_table)} variables, "
            f"relations: {relations or 'none'})"
        )

    def pretty(self) -> str:
        """A readable dump of the world table and all U-relations."""
        parts = [self._world_table.pretty()]
        for relation in self._relations.values():
            parts.append(relation.pretty())
        return "\n\n".join(parts)


def _canonical_instance(instance: Mapping[str, list[tuple]]) -> Instance:
    """A hashable, order-insensitive form of a deterministic database instance."""
    return tuple(
        (name, tuple(sorted(rows, key=repr)))
        for name, rows in sorted(instance.items())
    )
