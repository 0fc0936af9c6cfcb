"""U-relations: relations whose tuples carry world-set descriptors (paper, Section 2).

A U-relation over a schema ``Σ`` and a world table ``W`` is a set of tuples
over ``Σ``, each associated with a ws-descriptor over ``W``.  A tuple belongs
to the relation in exactly those possible worlds whose total valuation extends
its descriptor.  U-relations are a complete representation system for
probabilistic databases over nonempty finite sets of possible worlds
(Remark 2.2), and positive relational algebra operations translate into plain
relational operations on them (see :mod:`repro.db.algebra`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.descriptors import EMPTY_DESCRIPTOR, WSDescriptor, as_descriptor
from repro.core.wsset import WSSet
from repro.errors import SchemaError, UnknownAttributeError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import Value, Variable
else:
    Variable = object
    Value = object


@dataclass(frozen=True)
class UTuple:
    """One row of a U-relation: a ws-descriptor plus the attribute values."""

    descriptor: WSDescriptor
    values: tuple

    def with_descriptor(self, descriptor: WSDescriptor) -> "UTuple":
        """A copy of this row with a different ws-descriptor."""
        return UTuple(descriptor, self.values)

    def project(self, indexes: Sequence[int]) -> "UTuple":
        """A copy keeping only the values at the given positions."""
        return UTuple(self.descriptor, tuple(self.values[i] for i in indexes))


def _index_rows(mentions: dict, rows: Iterable[UTuple]) -> None:
    """Enter ``rows`` into a ``variable -> rows mentioning it`` index."""
    for row in rows:
        for variable in row.descriptor:
            mentions.setdefault(variable, []).append(row)


class URelation:
    """A named U-relation: a schema plus rows carrying ws-descriptors.

    Examples
    --------
    >>> r = URelation("R", ("SSN", "NAME"))
    >>> r.add({"j": 1}, (1, "John"))
    >>> r.add({"j": 7}, (7, "John"))
    >>> len(r)
    2
    >>> r.attributes
    ('SSN', 'NAME')
    """

    __slots__ = ("name", "_attributes", "_index", "_rows", "_mentions")

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[UTuple] | None = None,
    ) -> None:
        if len(set(attributes)) != len(tuple(attributes)):
            raise SchemaError(f"relation {name!r} has duplicate attribute names")
        self.name = name
        self._attributes: tuple[str, ...] = tuple(attributes)
        self._index: dict[str, int] = {a: i for i, a in enumerate(self._attributes)}
        self._rows: list[UTuple] = []
        # variable -> rows mentioning it (no empty entries); built on first
        # use by rows_mentioning(), kept current by add_tuple() from then on.
        self._mentions: dict[Variable, list[UTuple]] | None = None
        if rows is not None:
            for row in rows:
                self.add_tuple(row)

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        """The schema of this relation (WSD column excluded)."""
        return self._attributes

    def attribute_index(self, attribute: str) -> int:
        """The position of ``attribute`` in the schema."""
        try:
            return self._index[attribute]
        except KeyError:
            raise UnknownAttributeError(attribute, self._attributes) from None

    def has_attribute(self, attribute: str) -> bool:
        """True iff ``attribute`` belongs to the schema."""
        return attribute in self._index

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def add(
        self,
        descriptor: "WSDescriptor | Mapping[Variable, Value]",
        values: Sequence,
    ) -> None:
        """Append a row given its descriptor and values (in schema order)."""
        self.add_tuple(UTuple(as_descriptor(descriptor), tuple(values)))

    def add_certain(self, values: Sequence) -> None:
        """Append a row present in every world (nullary descriptor)."""
        self.add_tuple(UTuple(EMPTY_DESCRIPTOR, tuple(values)))

    def add_from_dict(
        self,
        descriptor: "WSDescriptor | Mapping[Variable, Value]",
        values: Mapping[str, object],
    ) -> None:
        """Append a row given a ``attribute -> value`` mapping."""
        ordered = tuple(values[attribute] for attribute in self._attributes)
        self.add_tuple(UTuple(as_descriptor(descriptor), ordered))

    def add_tuple(self, row: UTuple) -> None:
        """Append an existing :class:`UTuple` (its arity must match the schema)."""
        if len(row.values) != len(self._attributes):
            raise SchemaError(
                f"row arity {len(row.values)} does not match schema arity "
                f"{len(self._attributes)} of relation {self.name!r}"
            )
        self._rows.append(row)
        if self._mentions is not None:
            _index_rows(self._mentions, (row,))

    def rows_mentioning(
        self, variables: Iterable[Variable]
    ) -> list[tuple[int, UTuple]]:
        """``(position, row)`` of every row whose descriptor uses one of ``variables``.

        In row order.  Served from the ``variable -> rows`` index, so the
        Python-level work is proportional to the rows found; the one pass
        over the row list only compares identities.
        """
        mentions = self._mentions
        if mentions is None:
            mentions = self._mentions = {}
            _index_rows(mentions, self._rows)
        found = {id(row) for v in variables for row in mentions.get(v, ())}
        if not found:
            return []
        return [pair for pair in enumerate(self._rows) if id(pair[1]) in found]

    def spliced(self, replacements: Mapping[int, Sequence[UTuple]]) -> "URelation":
        """A copy with the row at each given position replaced by a run of rows.

        Row order is kept, every other row is shared, and the variable index
        is carried over (updated for the replaced rows only) rather than
        rebuilt — the posterior relation of a conditioning step.
        """
        clone = URelation(self.name, self._attributes)
        rows, out, start = self._rows, clone._rows, 0
        for position in sorted(replacements):
            out += rows[start:position]
            out += replacements[position]
            start = position + 1
        out += rows[start:]
        if self._mentions is not None:
            clone._mentions = mentions = {
                variable: list(found) for variable, found in self._mentions.items()
            }
            gone = {id(rows[position]) for position in replacements}
            touched = {v for p in replacements for v in rows[p].descriptor}
            for variable in touched:
                mentions[variable] = [
                    row for row in mentions[variable] if id(row) not in gone
                ]
            for added in replacements.values():
                _index_rows(mentions, added)
            for variable in touched:
                if not mentions[variable]:
                    del mentions[variable]
        return clone

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[UTuple]:
        return iter(self._rows)

    @property
    def rows(self) -> tuple[UTuple, ...]:
        """All rows of the relation, in insertion order."""
        return tuple(self._rows)

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    def descriptors(self) -> WSSet:
        """The ws-set of all row descriptors (the Boolean projection π∅)."""
        return WSSet(row.descriptor for row in self._rows)

    def descriptors_for_values(self, values: Sequence) -> WSSet:
        """The ws-set of descriptors of all rows equal to ``values``."""
        target = tuple(values)
        return WSSet(row.descriptor for row in self._rows if row.values == target)

    def variables(self) -> frozenset[Variable]:
        """All world-table variables referenced by some row descriptor."""
        if self._mentions is not None:
            return frozenset(self._mentions)
        result: set[Variable] = set()
        for row in self._rows:
            result.update(row.descriptor.variables)
        return frozenset(result)

    def distinct_values(self) -> list[tuple]:
        """The distinct value tuples appearing in the relation (any world)."""
        seen: dict[tuple, None] = {}
        for row in self._rows:
            seen.setdefault(row.values, None)
        return list(seen)

    def in_world(self, world: Mapping[Variable, Value]) -> list[tuple]:
        """The deterministic instance of this relation in the given world.

        A row is present iff the world's valuation extends the row's
        descriptor; duplicates (same values from different rows) collapse,
        matching set semantics.
        """
        present: dict[tuple, None] = {}
        for row in self._rows:
            if row.descriptor.is_satisfied_by(world):
                present.setdefault(row.values, None)
        return list(present)

    # ------------------------------------------------------------------
    # Copying / renaming
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "URelation":
        """A shallow copy (rows are immutable, so sharing them is safe)."""
        clone = URelation(name or self.name, self._attributes)
        clone._rows = list(self._rows)
        return clone

    def renamed_attributes(self, renaming: Mapping[str, str], name: str | None = None) -> "URelation":
        """A copy with attributes renamed according to ``renaming``."""
        new_attributes = tuple(renaming.get(a, a) for a in self._attributes)
        clone = URelation(name or self.name, new_attributes)
        clone._rows = list(self._rows)
        return clone

    def prefixed(self, prefix: str, name: str | None = None) -> "URelation":
        """A copy with every attribute renamed to ``prefix + attribute``.

        Used to disambiguate self-joins, mirroring the ``1.SSN`` / ``2.SSN``
        notation of Example 2.3.
        """
        return self.renamed_attributes(
            {a: f"{prefix}{a}" for a in self._attributes}, name=name
        )

    def map_descriptors(self, function) -> "URelation":
        """A copy with ``function`` applied to every row descriptor."""
        clone = URelation(self.name, self._attributes)
        clone._rows = [
            row.with_descriptor(function(row.descriptor)) for row in self._rows
        ]
        return clone

    def __repr__(self) -> str:
        return f"URelation({self.name!r}, {self._attributes!r}, {len(self._rows)} rows)"

    def pretty(self, limit: int = 20) -> str:
        """A readable rendering mirroring the U-relation figures of the paper."""
        header = "WSD | " + " | ".join(self._attributes)
        lines = [f"U-relation {self.name}", header, "-" * len(header)]
        for row in self._rows[:limit]:
            values = " | ".join(str(v) for v in row.values)
            lines.append(f"{row.descriptor} | {values}")
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more rows)")
        return "\n".join(lines)
