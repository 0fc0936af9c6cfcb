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

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from operator import add
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


#: Rows per chunk of the chunk directory when rows are appended.
CHUNK = 64


def _index_rows(mentions: dict, chunk: int, rows: Iterable[UTuple]) -> None:
    """Enter ``rows`` of ``chunk`` into a ``variable -> [(chunk, row)]`` index."""
    for row in rows:
        entry = (chunk, row)
        for variable in row.descriptor:
            mentions.setdefault(variable, []).append(entry)


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

    __slots__ = (
        "name", "_attributes", "_index", "_rows", "_starts", "_mentions", "_equal",
        "_shared",
    )

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
        # The first position of each chunk of _rows.  A splice resizes chunks
        # in place, so chunk numbers never change and index entries name one.
        self._starts: list[int] = [0]
        # Built on first use (rows_mentioning() / rows_where()), kept current
        # by add_tuple(): variable -> [(chunk, row)] of the rows mentioning
        # it (no empty entries), and position -> {value -> rows, in order}.
        self._mentions: dict[Variable, list[tuple[int, UTuple]]] | None = None
        self._equal: dict[int, dict[Value, list[UTuple]]] = {}
        # True while those lists may be shared with a splice.
        self._shared = False
        if rows is not None:
            for row in rows:
                self.add_tuple(row)

    @classmethod
    def _of(cls, name: str, attributes: Sequence[str], rows: list) -> "URelation":
        """A relation over ``rows`` (a list it may keep; arity already checked)."""
        relation = cls(name, attributes)
        relation._rows = rows
        relation._starts = list(range(0, len(rows), CHUNK)) or [0]
        return relation

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
        rows, starts = self._rows, self._starts
        if len(rows) - starts[-1] >= CHUNK:
            starts.append(len(rows))
        rows.append(row)
        if self._shared:  # own the index lists a splice may share first
            if self._mentions is not None:
                self._mentions = {v: list(f) for v, f in self._mentions.items()}
            self._equal = {
                p: {v: list(f) for v, f in index.items()}
                for p, index in self._equal.items()
            }
            self._shared = False
        if self._mentions is not None:
            _index_rows(self._mentions, len(starts) - 1, (row,))
        try:
            for position, index in self._equal.items():
                index.setdefault(row.values[position], []).append(row)
        except TypeError:  # an unhashable value: rebuild (or scan) on demand
            self._equal = {}

    def _chunk(self, chunk: int) -> list[UTuple]:
        """The rows of one chunk of the chunk directory."""
        starts = self._starts
        end = starts[chunk + 1] if chunk + 1 < len(starts) else len(self._rows)
        return self._rows[starts[chunk]:end]

    def rows_mentioning(
        self, variables: Iterable[Variable]
    ) -> list[tuple[int, UTuple]]:
        """``(position, row)`` of every row whose descriptor uses one of ``variables``.

        In row order.  Served from the ``variable -> rows`` index, whose
        entries name their row's chunk: only the chunks holding a found row
        are scanned for positions, so the Python-level work is proportional
        to the rows found, not to the relation.
        """
        mentions = self._mentions
        if mentions is None:
            mentions = self._mentions = {}
            for chunk in range(len(self._starts)):
                _index_rows(mentions, chunk, self._chunk(chunk))
        hits = [entry for v in variables for entry in mentions.get(v, ())]
        found = {id(row) for _, row in hits}
        return [
            pair
            for chunk in sorted({chunk for chunk, _ in hits})
            for pair in enumerate(self._chunk(chunk), self._starts[chunk])
            if id(pair[1]) in found
        ]

    def rows_where(self, attribute: str, value: Value) -> list[UTuple] | None:
        """The rows whose ``attribute`` equals ``value``, in row order.

        Served from a ``value -> rows`` index on the attribute, built on its
        first use.  ``None`` (scan instead) when ``value`` is unhashable or
        not equal to itself, or the column holds an unhashable value.
        """
        position = self.attribute_index(attribute)
        try:
            index = self._equal.get(position)
            if index is None:
                index = {}
                for row in self._rows:
                    index.setdefault(row.values[position], []).append(row)
                self._equal[position] = index
            return list(index.get(value, ())) if value == value else None
        except TypeError:
            return None

    def spliced(self, replacements: Mapping[int, Sequence[UTuple]]) -> "URelation":
        """A copy with the row at each given position replaced by a run of rows.

        Row order is kept and every other row is shared — the posterior
        relation of a conditioning step.  Runs stay in their row's chunk, and
        the indexes are carried over, sharing each list no replaced row is in
        (each side copies them before its next write); an equality index
        whose column a run changes is dropped, to be rebuilt on demand.
        """
        rows, starts = self._rows, self._starts
        out, grown, added, start = [], [0] * len(starts), {}, 0
        for position in sorted(replacements):
            run = replacements[position]
            out += rows[start:position]
            out += run
            start = position + 1
            chunk = bisect_right(starts, position) - 1
            grown[chunk] += len(run) - 1
            _index_rows(added, chunk, run)
        out += rows[start:]
        clone = URelation._of(self.name, self._attributes, out)
        clone._starts = list(map(add, starts, accumulate(grown, initial=0)))
        self._shared = clone._shared = True
        runs = {id(rows[position]): run for position, run in replacements.items()}
        if self._mentions is not None:
            clone._mentions = mentions = dict(self._mentions)
            touched = {v for p in replacements for v in rows[p].descriptor}
            for variable in touched | added.keys():
                kept = [e for e in mentions.get(variable, ()) if id(e[1]) not in runs]
                kept += added.get(variable, ())
                if kept:
                    mentions[variable] = kept
                else:
                    del mentions[variable]
        for position, index in self._equal.items():
            if len(runs) < len(replacements) or any(
                new.values[position] != rows[p].values[position]
                for p, run in replacements.items()
                for new in run
            ):
                continue  # a run changes the column, or a replaced row repeats
            clone._equal[position] = index = dict(index)
            for value in {rows[p].values[position] for p in replacements}:
                index[value] = [
                    new for row in index[value] for new in runs.get(id(row), (row,))
                ]
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

    def descriptors_by_values(self) -> dict[tuple, WSSet]:
        """:meth:`descriptors_for_values` of every distinct value tuple, in one pass.

        Keyed in first-appearance order, like :meth:`distinct_values`.
        """
        grouped: dict[tuple, list[WSDescriptor]] = {}
        for row in self._rows:
            grouped.setdefault(row.values, []).append(row.descriptor)
        return {values: WSSet(found) for values, found in grouped.items()}

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
        return URelation._of(name or self.name, self._attributes, list(self._rows))

    def renamed_attributes(self, renaming: Mapping[str, str], name: str | None = None) -> "URelation":
        """A copy with attributes renamed according to ``renaming``."""
        new_attributes = tuple(renaming.get(a, a) for a in self._attributes)
        return URelation._of(name or self.name, new_attributes, list(self._rows))

    def prefixed(
        self,
        prefix: str,
        name: str | None = None,
        rows: Iterable[UTuple] | None = None,
    ) -> "URelation":
        """A copy with every attribute renamed to ``prefix + attribute``.

        Used to disambiguate self-joins, mirroring the ``1.SSN`` / ``2.SSN``
        notation of Example 2.3.  ``rows``, some of this relation's rows,
        replaces the default of all of them.
        """
        attributes = tuple(f"{prefix}{a}" for a in self._attributes)
        return URelation._of(
            name or self.name, attributes, list(self._rows if rows is None else rows)
        )

    def map_descriptors(self, function) -> "URelation":
        """A copy with ``function`` applied to every row descriptor."""
        return URelation._of(self.name, self._attributes, [
            row.with_descriptor(function(row.descriptor)) for row in self._rows
        ])

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
