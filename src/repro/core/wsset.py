"""World-set descriptor sets (ws-sets) and their set algebra (paper, Section 3.2).

A ws-set is a set of ws-descriptors and represents the union of the
world-sets represented by its members.  The three set operations of the paper
are implemented exactly as defined:

* ``Union(S1, S2) = S1 ∪ S2``;
* ``Intersect(S1, S2) = {d1 ∪ d2 | d1 ∈ S1, d2 ∈ S2, d1 consistent with d2}``
  (the paper writes ``d1 ∩ d2`` for the descriptor denoting the intersection
  of the two world-sets, which is the union of the assignment sets);
* ``Diff(S1, S2)`` by the inductive definition of Section 3.2, which needs the
  variable domains (a :class:`~repro.db.world_table.WorldTable`) to enumerate
  the alternative values of the eliminated assignments.  The resulting
  descriptors are pairwise mutex (Proposition 3.4), a property exploited by
  the ws-descriptor elimination method of Section 6.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import chain
from typing import TYPE_CHECKING

from repro.core.decompose import kept_after_subsumption
from repro.core.descriptors import EMPTY_DESCRIPTOR, WSDescriptor, as_descriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import Value, Variable, WorldTable
else:
    Variable = object
    Value = object

DescriptorLike = "WSDescriptor | Mapping[Variable, Value] | Iterable[tuple[Variable, Value]]"


class WSSet:
    """An immutable set of world-set descriptors.

    Duplicate descriptors are removed at construction time; the first
    occurrence order is preserved, which keeps all algorithms deterministic.
    A set decoded by :meth:`from_wire` builds its descriptors the first time
    something reads them.

    Examples
    --------
    >>> s = WSSet([{"x": 1}, {"x": 2, "y": 1}])
    >>> len(s)
    2
    >>> s.variables() == frozenset({"x", "y"})
    True
    """

    __slots__ = ("_descriptors", "_hash", "_wire")

    def __init__(self, descriptors: Iterable[DescriptorLike] = ()) -> None:
        seen: dict[WSDescriptor, None] = {}
        for item in descriptors:
            seen.setdefault(as_descriptor(item), None)
        self._descriptors: tuple[WSDescriptor, ...] = tuple(seen)
        self._hash: int | None = None
        self._wire: list[list] | None = None

    def __getattr__(self, name: str) -> tuple[WSDescriptor, ...]:
        # Reached only while a from_wire set's descriptor slot is unset.
        if name != "_descriptors" or self._wire is None:
            raise AttributeError(name)
        self._descriptors = WSSet(self.assignments())._descriptors
        return self._descriptors

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "WSSet":
        """The empty ws-set, denoting the empty world-set."""
        return cls(())

    @classmethod
    def universal(cls) -> "WSSet":
        """The ws-set ``{∅}`` denoting the set of all possible worlds."""
        return cls((EMPTY_DESCRIPTOR,))

    @classmethod
    def of(cls, *descriptors: DescriptorLike) -> "WSSet":
        """Convenience variadic constructor: ``WSSet.of({"x": 1}, {"y": 2})``."""
        return cls(descriptors)

    # ------------------------------------------------------------------
    # The wire form
    # ------------------------------------------------------------------
    def to_wire(self) -> list[list]:
        """One flat ``[variable, value, variable, value, …]`` list per descriptor.

        Assignments keep the descriptor's own order.  :meth:`from_wire`
        reads it back; variables and values must survive JSON unchanged
        (strings, numbers, booleans) for the round trip to be faithful.
        The set flattens itself once: the lists returned are its own and
        read-only (:func:`~repro.db.api.target_to_payload`, the one caller,
        only encodes them).

        >>> WSSet([{"x": 1, "y": 2}, {"z": 0}]).to_wire()
        [['x', 1, 'y', 2], ['z', 0]]
        """
        if self._wire is None:
            self._wire = [list(chain(*pairs)) for pairs in self.assignments()]
        return self._wire

    @classmethod
    def from_wire(cls, lists: list) -> "WSSet":
        """The ws-set of :meth:`to_wire` lists, its descriptors built on first read.

        Checks the shape — a list of even-length lists, else
        :class:`ValueError` — and that each descriptor is functional: a
        variable listed twice with different values raises
        :class:`~repro.errors.DescriptorError`, with equal values it counts
        once.  Interning reads the lists directly (:meth:`assignments`).

        >>> WSSet.from_wire([["x", 1, "x", 1], ["z", 0]]) == WSSet([{"x": 1}, {"z": 0}])
        True
        """
        if not isinstance(lists, list):
            raise ValueError(f"a wire ws-set is a list of descriptors, got {lists!r}")
        wire = []
        for flat in lists:
            if not isinstance(flat, list) or len(flat) % 2:
                raise ValueError(
                    f"a wire descriptor is a flat [variable, value, ...] list, got {flat!r}"
                )
            variables = flat[::2]
            if len(set(variables)) < len(variables):
                pairs = WSDescriptor(zip(variables, flat[1::2])).items()
                flat = list(chain.from_iterable(pairs))
            wire.append(flat)
        ws_set = cls.__new__(cls)
        ws_set._hash = None
        ws_set._wire = wire
        return ws_set

    def assignments(self) -> Iterator[Iterable[tuple[Variable, Value]]]:
        """Each descriptor's ``(variable, value)`` pairs, in its own order.

        A set with wire lists (from :meth:`from_wire`, or kept by
        :meth:`to_wire`) yields them straight from its lists, in wire order
        and with any repeated descriptor repeated, building no
        :class:`WSDescriptor`.
        """
        if self._wire is None:
            return (descriptor.items() for descriptor in self._descriptors)
        return (zip(flat[::2], flat[1::2]) for flat in self._wire)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._descriptors)

    def __iter__(self) -> Iterator[WSDescriptor]:
        return iter(self._descriptors)

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, WSDescriptor):
            return False
        return item in set(self._descriptors)

    def __bool__(self) -> bool:
        return bool(self._descriptors)

    @property
    def descriptors(self) -> tuple[WSDescriptor, ...]:
        """The descriptors of this ws-set, in deterministic order."""
        return self._descriptors

    @property
    def is_empty(self) -> bool:
        """True iff this ws-set denotes the empty world-set syntactically."""
        return not self._descriptors

    @property
    def contains_universal(self) -> bool:
        """True iff the nullary descriptor ``∅`` (all worlds) is a member."""
        return any(descriptor.is_empty for descriptor in self._descriptors)

    def variables(self) -> frozenset[Variable]:
        """All variables mentioned by some descriptor."""
        result: set[Variable] = set()
        for descriptor in self._descriptors:
            result.update(descriptor.variables)
        return frozenset(result)

    def total_size(self) -> int:
        """Total number of assignments across all descriptors (a size measure used in §7)."""
        return sum(len(descriptor) for descriptor in self._descriptors)

    # ------------------------------------------------------------------
    # Section 3.2 set operations
    # ------------------------------------------------------------------
    def union(self, other: "WSSet") -> "WSSet":
        """``Union(S1, S2) = S1 ∪ S2``."""
        return WSSet(self._descriptors + other._descriptors)

    def intersect(self, other: "WSSet") -> "WSSet":
        """``Intersect(S1, S2)``: pairwise combination of consistent descriptors."""
        combined: list[WSDescriptor] = []
        for d1 in self._descriptors:
            for d2 in other._descriptors:
                merged = d1.intersect(d2)
                if merged is not None:
                    combined.append(merged)
        return WSSet(combined)

    def difference(self, other: "WSSet", world_table: "WorldTable") -> "WSSet":
        """``Diff(S1, S2)`` following the inductive definition of Section 3.2.

        The result's descriptors are pairwise mutex (Proposition 3.4).
        """
        result: list[WSDescriptor] = []
        for descriptor in self._descriptors:
            result.extend(
                _difference_single(descriptor, other._descriptors, world_table)
            )
        return WSSet(result)

    def complement(self, world_table: "WorldTable") -> "WSSet":
        """The ws-set denoting all worlds *not* represented by this ws-set.

        Computed as ``Diff({∅}, S)`` — used e.g. in Example 2.3 of the paper to
        turn the ws-set of constraint-violating worlds into the condition
        ws-set of constraint-satisfying worlds.
        """
        return WSSet.universal().difference(self, world_table)

    # ------------------------------------------------------------------
    # Properties lifted from descriptors (Section 3.1)
    # ------------------------------------------------------------------
    def is_mutex_with(self, other: "WSSet") -> bool:
        """True iff every pair of descriptors across the two ws-sets is mutex."""
        return all(
            d1.is_mutex_with(d2)
            for d1 in self._descriptors
            for d2 in other._descriptors
        )

    def is_independent_of(self, other: "WSSet") -> bool:
        """True iff every pair of descriptors across the two ws-sets is independent."""
        return not (self.variables() & other.variables())

    def is_pairwise_mutex(self) -> bool:
        """True iff the member descriptors are pairwise mutex among themselves."""
        descriptors = self._descriptors
        for i, d1 in enumerate(descriptors):
            for d2 in descriptors[i + 1:]:
                if not d1.is_mutex_with(d2):
                    return False
        return True

    def is_equivalent_to(self, other: "WSSet", world_table: "WorldTable") -> bool:
        """True iff the two ws-sets represent the same world-set.

        Decided via two symbolic difference computations; no world enumeration.
        """
        return (
            self.difference(other, world_table).is_empty
            and other.difference(self, world_table).is_empty
        )

    # ------------------------------------------------------------------
    # Simplification
    # ------------------------------------------------------------------
    def without_subsumed(self) -> "WSSet":
        """Drop descriptors whose world-set is contained in another member's.

        ``d`` is dropped when some *other* member ``d'`` satisfies
        ``d is contained in d'`` (i.e. ``d`` extends ``d'``).  This is the
        simplification used in Example 3.2 to expose independence.
        """
        kept = kept_after_subsumption([set(d.items()) for d in self._descriptors])
        return WSSet(self._descriptors[index] for index in kept)

    def without_singleton_variables(self, world_table: "WorldTable") -> "WSSet":
        """Drop assignments of variables whose domain has a single value.

        Such assignments always hold (weight one) and only obscure the
        syntactic mutex/independence checks of Section 3.1.
        """
        singletons = {
            variable
            for variable in self.variables()
            if variable in world_table and world_table.is_singleton(variable)
        }
        if not singletons:
            return self
        return WSSet(descriptor.without(singletons) for descriptor in self._descriptors)

    # ------------------------------------------------------------------
    # Decomposition helpers
    # ------------------------------------------------------------------
    def consistent_with(self, variable: Variable, value: Value) -> "WSSet":
        """The subset of descriptors consistent with the assignment ``variable -> value``."""
        return WSSet(
            descriptor
            for descriptor in self._descriptors
            if descriptor.get(variable, value) == value
        )

    def add(self, descriptor: DescriptorLike) -> "WSSet":
        """A new ws-set with ``descriptor`` added."""
        return WSSet(self._descriptors + (as_descriptor(descriptor),))

    def map(self, function) -> "WSSet":
        """A new ws-set with ``function`` applied to each descriptor."""
        return WSSet(function(descriptor) for descriptor in self._descriptors)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def is_satisfied_by(self, world: Mapping[Variable, Value]) -> bool:
        """True iff the total valuation ``world`` extends some member descriptor."""
        return any(
            descriptor.is_satisfied_by(world) for descriptor in self._descriptors
        )

    def naive_probability_upper_bound(self, world_table: "WorldTable") -> float:
        """The (possibly > 1) sum of member probabilities — the union bound.

        Exact when the descriptors are pairwise mutex; used by the Karp–Luby
        estimator as the total clause weight ``Z``.
        """
        return sum(
            descriptor.probability(world_table) for descriptor in self._descriptors
        )

    # ------------------------------------------------------------------
    # Hashing / equality / repr
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WSSet):
            return NotImplemented
        return frozenset(self._descriptors) == frozenset(other._descriptors)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._descriptors))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(descriptor) for descriptor in self._descriptors)
        return "WSSet{" + inner + "}"


def _difference_single(
    descriptor: WSDescriptor,
    removed: tuple[WSDescriptor, ...],
    world_table: "WorldTable",
) -> list[WSDescriptor]:
    """``Diff({descriptor}, removed)`` — fold the pairwise rule over ``removed``."""
    remaining: list[WSDescriptor] = [descriptor]
    for d2 in removed:
        next_remaining: list[WSDescriptor] = []
        for d1 in remaining:
            next_remaining.extend(_difference_pair(d1, d2, world_table))
        remaining = next_remaining
        if not remaining:
            break
    return remaining


def _difference_pair(
    d1: WSDescriptor,
    d2: WSDescriptor,
    world_table: "WorldTable",
) -> list[WSDescriptor]:
    """``Diff({d1}, {d2})`` exactly as defined in Section 3.2.

    If the descriptors are inconsistent the difference is ``{d1}``.  Otherwise
    the worlds of ``d1`` also covered by ``d2`` are carved out by branching,
    for each assignment ``x_i -> w_i`` of ``d2 - d1`` in turn, on the
    alternative values ``w_i' != w_i`` of ``x_i`` while pinning the earlier
    assignments ``x_1 -> w_1, ..., x_{i-1} -> w_{i-1}``.
    """
    if not d1.is_consistent_with(d2):
        return [d1]
    extra = d1.difference_from(d2)
    if not extra:
        # d2 ⊆ d1 as assignment sets: every world of d1 is a world of d2.
        return []
    results: list[WSDescriptor] = []
    pinned = d1.as_dict()
    for variable, value in extra.items():
        for alternative in world_table.domain(variable):
            if alternative == value:
                continue
            branch = dict(pinned)
            branch[variable] = alternative
            results.append(WSDescriptor(branch))
        # Later branches keep this assignment pinned to d2's value.
        pinned[variable] = value
    return results


def ws_union(s1: WSSet, s2: WSSet) -> WSSet:
    """Module-level alias of :meth:`WSSet.union` (paper notation ``Union``)."""
    return s1.union(s2)


def ws_intersect(s1: WSSet, s2: WSSet) -> WSSet:
    """Module-level alias of :meth:`WSSet.intersect` (paper notation ``Intersect``)."""
    return s1.intersect(s2)


def ws_difference(s1: WSSet, s2: WSSet, world_table: "WorldTable") -> WSSet:
    """Module-level alias of :meth:`WSSet.difference` (paper notation ``Diff``)."""
    return s1.difference(s2, world_table)
