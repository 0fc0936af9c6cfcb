"""Interned decomposition engine: integer-packed descriptors, iterative core.

This module is the compiled internal representation behind the default exact
confidence engine.  The plain-dict engine of :mod:`repro.core.probability`
spends most of its time hashing strings, rebuilding dicts on every variable
split, and (when memoising) constructing nested frozensets as cache keys.  The
interned engine removes all of that:

* **Interning** — an :class:`InternedSpace` maps every variable and every
  domain value of a :class:`~repro.db.world_table.WorldTable` to dense integer
  ids and stores the domains and alternative probabilities as dense arrays.
  The space is built once per world table and cached on it
  (:meth:`~repro.db.world_table.WorldTable.interned`).
* **Packing** — an assignment ``x -> i`` becomes the single integer
  ``(variable_id << shift) | value_id`` where ``shift`` accommodates the
  largest domain.  A descriptor is a sorted tuple of packed ints, a ws-set a
  list of such tuples.  Packed tuples hash and compare in O(size) machine-int
  operations, so canonical ws-set keys are cheap enough to make sub-ws-set
  memoisation (component caching, as in #SAT solvers) the default.
* **Iterative core** — the ComputeTree ∘ P recursion of Figure 7 is run with
  an explicit frame stack instead of Python recursion, so arbitrarily deep
  variable eliminations need no ``sys.setrecursionlimit`` hack.

The engine computes exactly the probability equations of Figure 7:

* ⊗-node (independent partitioning):  ``P = 1 − Π_i (1 − P(S_i))``
* ⊕-node (variable elimination):      ``P = Σ_i P({x → i}) · P(S_{x→i} ∪ T)``
* ∅ leaf: ``P = 1``;   ⊥ leaf (empty ws-set): ``P = 0``

and agrees with brute-force enumeration (see ``tests/core/test_interned.py``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING

from repro.core.decompose import (
    Budget,
    DecompositionStats,
    kept_after_subsumption,
    make_memo,
)
from repro.core.heuristics import make_heuristic
from repro.errors import UnknownVariableError

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable

    from repro.core.probability import ExactConfig
    from repro.core.wsset import WSSet
    from repro.db.world_table import Value, Variable, WorldTable

#: A packed assignment ``(variable_id << shift) | value_id``.
Packed = int

#: Serialises appends to the id arrays a successor family shares.
_GROW_LOCK = threading.Lock()

#: A descriptor in interned form: a sorted tuple of packed assignments.
PackedDescriptor = tuple


class InternedSpace:
    """Dense integer interning of a world table's variables and domains.

    The space assigns ``variable_id`` in insertion order of the world table and
    ``value_id`` in domain insertion order, so runs eliminate variables in a
    deterministic order.

    A space records the world table's version counter at build time, and
    :meth:`WorldTable.interned` rebuilds it (dense ids again) when the table
    has been mutated in place since.  Conditioning instead *replaces* the
    table, and the replacement's space is this one's :meth:`successor`: the
    per-id arrays are append-only and shared by the whole family of
    successors, each member owning only its ``variable_ids`` (the ids live in
    its table).  Within a family an id therefore denotes one variable with
    one distribution forever — surviving variables keep their id, dropped
    ids are orphaned and never reused — so anything keyed by packed ids (the
    engine memo) stays valid across the replacement, and relative id order,
    hence every float fold order, matches a fresh build.

    ``wire_cache`` maps the wire lists of a served ws-set (as a tuple of
    tuples) to its interned list.  It belongs to this space object alone, so
    a successor or an in-place rebuild starts with an empty one and no entry
    outlives the ids and domains it was interned under.
    """

    __slots__ = (
        "version",
        "wire_cache",
        "variables",
        "variable_ids",
        "values",
        "value_ids",
        "weights",
        "shift",
        "mask",
    )

    def __init__(self, world_table: "WorldTable") -> None:
        self.version = world_table.version
        self.wire_cache: dict[tuple, list[PackedDescriptor]] = {}
        self.variables: list["Variable"] = []
        self.variable_ids: dict["Variable", int] = {}
        self.values: list[list["Value"]] = []
        self.value_ids: list[dict["Value", int]] = []
        self.weights: list[list[float]] = []
        for variable in world_table.variables:
            self.variable_ids[variable] = len(self.variables)
            self._append(variable, world_table.distribution(variable))
        largest_domain = max((len(domain) for domain in self.values), default=1)
        self.shift = max(1, (largest_domain - 1).bit_length())
        self.mask = (1 << self.shift) - 1

    def _append(self, variable: "Variable", distribution: dict) -> None:
        self.variables.append(variable)
        self.values.append(list(distribution))
        self.value_ids.append({value: j for j, value in enumerate(distribution)})
        self.weights.append(list(distribution.values()))

    def successor(
        self, world_table: "WorldTable", dropped, added
    ) -> "InternedSpace | None":
        """The space of the table conditioning replaces this one's table with.

        ``world_table`` holds this space's live variables minus ``dropped``,
        distributions untouched, plus the new variables ``added`` (a
        sequence).  Returns ``None`` — the caller then builds a fresh dense
        space — when a new domain does not fit ``shift`` or the family's dead
        ids would outnumber the live ones.
        """
        live = len(self.variable_ids) - len(dropped) + len(added)
        if len(self.variables) + len(added) > 2 * live or any(
            world_table.domain_size(variable) > self.mask + 1 for variable in added
        ):
            return None
        child = InternedSpace.__new__(InternedSpace)
        child.version = world_table.version
        child.wire_cache = {}
        child.variables, child.values = self.variables, self.values
        child.value_ids, child.weights = self.value_ids, self.weights
        child.shift, child.mask = self.shift, self.mask
        child.variable_ids = variable_ids = dict(self.variable_ids)
        for variable in dropped:
            del variable_ids[variable]
        # Siblings (two posteriors of one prior) may extend the shared arrays
        # from different threads; the four appends must not interleave.
        with _GROW_LOCK:
            for variable in added:
                variable_ids[variable] = len(self.variables)
                self._append(variable, world_table.distribution(variable))
        return child

    def shares_ids_with(self, other: "InternedSpace") -> bool:
        """True iff both spaces belong to one :meth:`successor` family."""
        return self.variables is other.variables

    # ------------------------------------------------------------------
    # Packing / unpacking
    # ------------------------------------------------------------------
    def pack(self, variable: "Variable", value: "Value") -> Packed:
        """Pack one assignment; raises on unknown variables or values."""
        try:
            variable_id = self.variable_ids[variable]
        except KeyError:
            raise UnknownVariableError(variable) from None
        return (variable_id << self.shift) | self.value_ids[variable_id][value]

    def unpack(self, packed: Packed) -> tuple["Variable", "Value"]:
        """The ``(variable, value)`` assignment encoded by ``packed``."""
        variable_id = packed >> self.shift
        return self.variables[variable_id], self.values[variable_id][packed & self.mask]

    def weight(self, packed: Packed) -> float:
        """``P({variable -> value})`` of a packed assignment."""
        return self.weights[packed >> self.shift][packed & self.mask]

    def domain_size(self, variable_id: int) -> int:
        """Number of alternatives of the variable with the given id.

        Matches the :class:`~repro.db.world_table.WorldTable` method of the
        same name so the space can stand in as the domain-size provider of the
        variable-choice heuristics.
        """
        return len(self.values[variable_id])

    # ------------------------------------------------------------------
    # Descriptor interning
    # ------------------------------------------------------------------
    def intern_items(
        self, items: "Iterable[tuple[Variable, Value]]"
    ) -> PackedDescriptor | None:
        """Intern one descriptor given as ``(variable, value)`` pairs.

        Returns ``None`` when some value is not in its variable's domain: such
        a descriptor is satisfied by no possible world and contributes nothing
        to the probability of a ws-set.  Unknown *variables* raise
        :class:`~repro.errors.UnknownVariableError`.
        """
        variable_ids = self.variable_ids
        value_ids = self.value_ids
        shift = self.shift
        packed = []
        for variable, value in items:
            try:
                variable_id = variable_ids[variable]
            except KeyError:
                raise UnknownVariableError(variable) from None
            value_id = value_ids[variable_id].get(value)
            if value_id is None:
                return None
            packed.append((variable_id << shift) | value_id)
        packed.sort()
        return tuple(packed)

    def intern_descriptors(self, descriptors) -> list[PackedDescriptor]:
        """Intern plain-dict (or ``.items()``-bearing) descriptors, each once.

        Like every interned list, the result is duplicate-free: first
        occurrences in input order, unsatisfiable descriptors dropped.
        """
        return self._intern_all(descriptor.items() for descriptor in descriptors)

    def intern_wsset(self, ws_set: "WSSet") -> list[PackedDescriptor]:
        """Intern a :class:`~repro.core.wsset.WSSet`, each descriptor once.

        Reads :meth:`~repro.core.wsset.WSSet.assignments`, so a set decoded
        from the wire is interned from its lists; either form gives the same
        list (first occurrences, unsatisfiable descriptors dropped).  A set
        with wire lists of at most :data:`_PROBE_LIMIT` descriptors is looked
        up in :attr:`wire_cache` first, so a repeated one costs a key build
        and a lookup; the caller gets a copy it may keep.
        """
        wire = ws_set._wire
        if wire is None or len(wire) > _PROBE_LIMIT:
            return self._intern_all(ws_set.assignments())
        key = tuple(map(tuple, wire))
        try:
            interned = self.wire_cache.get(key)
        except TypeError:  # an unhashable value fails as it does uncached
            return self._intern_all(ws_set.assignments())
        if interned is None:
            interned = self._intern_all(ws_set.assignments())
            if len(self.wire_cache) >= _WIRE_CACHE_LIMIT:
                self.wire_cache.clear()  # atomic: loop and pool threads share it
            self.wire_cache[key] = interned
        return list(interned)

    def _intern_all(self, descriptors) -> list[PackedDescriptor]:
        interned = map(self.intern_items, descriptors)
        return deduplicate_interned(
            [packed for packed in interned if packed is not None]
        )

    def externalize(self, descriptor: PackedDescriptor) -> dict:
        """The plain-dict form of an interned descriptor (tests / debugging)."""
        return dict(self.unpack(packed) for packed in descriptor)


# ----------------------------------------------------------------------
# Packed ws-set helpers
# ----------------------------------------------------------------------
def deduplicate_interned(descriptors: list[PackedDescriptor]) -> list[PackedDescriptor]:
    """Remove exact duplicates, preserving first-occurrence order."""
    seen: set[PackedDescriptor] = set()
    unique: list[PackedDescriptor] = []
    for descriptor in descriptors:
        if descriptor not in seen:
            seen.add(descriptor)
            unique.append(descriptor)
    return unique


def remove_subsumed_interned(
    descriptors: list[PackedDescriptor],
) -> list[PackedDescriptor]:
    """Drop descriptors that extend (are contained in) another descriptor.

    Size-sorted pass over packed-int sets; first occurrence wins among
    duplicates, and the surviving descriptors keep their input order.  When
    every descriptor has one size the pass is only deduplication: distinct
    sets of equal size never contain one another.
    """
    if not mixed_sizes(descriptors):
        return deduplicate_interned(descriptors)
    kept = kept_after_subsumption([set(descriptor) for descriptor in descriptors])
    return [descriptors[index] for index in kept]


def mixed_sizes(descriptors: list[PackedDescriptor]) -> bool:
    """True iff the descriptors differ in size: only then can one subsume another."""
    return len(set(map(len, descriptors))) > 1


def connected_components_interned(
    descriptors: list[PackedDescriptor], shift: int
) -> list[list[PackedDescriptor]]:
    """Partition into variable-disjoint components (Section 4.2's union-find).

    Components live in numbered *slots*.  A descriptor whose variables are
    all new opens the next slot; otherwise it joins the lowest-numbered slot
    holding one of its variables, and the other slots it touches are then
    fused into that one in ascending slot order (the descriptor is appended
    *before* their members).  The result lists the surviving slots in
    creation order with members in that join/fuse order — except that a
    single component is returned as ``[descriptors]``, the input list object
    in input order.  Every ⊗/⊕ fold, memo key and recorded circuit follows
    this order, so it is the function's contract, not an accident.

    ``slot_of`` maps a variable id to the slot that first held it and
    ``redirect`` a fused slot to the slot it was folded into, so a descriptor
    costs one dict lookup per assignment whatever the number of components.
    This runs at every INDVE node — the engine's hottest helper.
    """
    slot_of: dict[int, int] = {}
    redirect: list[int] = []
    members: list[list[PackedDescriptor] | None] = []
    live = 0
    for descriptor in descriptors:
        first = -1
        others = fresh = None
        for packed in descriptor:
            variable_id = packed >> shift
            slot = slot_of.get(variable_id)
            if slot is None:
                if fresh is None:
                    fresh = [variable_id]
                else:
                    fresh.append(variable_id)
                continue
            while redirect[slot] != slot:
                redirect[slot] = redirect[redirect[slot]]  # path halving
                slot = redirect[slot]
            if slot != first:
                if first < 0:
                    first = slot
                elif others is None:
                    others = {slot}
                else:
                    others.add(slot)
        if first < 0:
            first = len(members)
            redirect.append(first)
            members.append([descriptor])
            live += 1
        elif others is None:
            members[first].append(descriptor)
        else:
            # The descriptor bridges components: fuse into the lowest slot.
            others.add(first)
            first, *rest = sorted(others)
            joined = members[first]
            joined.append(descriptor)
            for slot in rest:
                joined.extend(members[slot])
                members[slot] = None
                redirect[slot] = first
            live -= len(rest)
        if fresh is not None:
            for variable_id in fresh:
                slot_of[variable_id] = first
    if live == 1:
        return [descriptors]
    return [component for component in members if component]


#: The branch ws-set ``{∅}`` of a value some descriptor assigns alone.
CERTAIN: tuple = ((),)


def split_on_variable_interned(
    descriptors: list[PackedDescriptor], variable_id: int, shift: int, domain_size: int
) -> tuple[list, list[PackedDescriptor]]:
    """Figure 4's ⊕ split on a variable: ``(branches, unmentioned)``.

    ``unmentioned`` is ``T``.  ``branches[i]`` is value ``i``'s branch ws-set
    ``S_{x→i} ∪ T`` — the descriptors assigning ``x → i`` with that
    assignment removed (tuples stay sorted), then ``T`` minus duplicates —
    or :data:`CERTAIN` when some descriptor is ``{x → i}`` alone, or ``None``
    when no descriptor mentions the value (the absent values share ``T``).
    Descriptors are sorted: ``x``'s assignment is found by one bisection.
    """
    low = variable_id << shift
    high = (variable_id + 1) << shift
    branches: list = [None] * domain_size
    unmentioned: list[PackedDescriptor] = []
    for descriptor in descriptors:
        index = bisect_left(descriptor, low)
        packed = descriptor[index] if index < len(descriptor) else high
        if packed < high:
            reduced = descriptor[:index] + descriptor[index + 1 :]
            branch = branches[packed - low]
            if branch is None:
                branches[packed - low] = [reduced]
            else:
                branch.append(reduced)
        else:
            unmentioned.append(descriptor)
    for value_id, branch in enumerate(branches):
        if branch is None:
            continue
        if () in branch:
            branches[value_id] = CERTAIN
        elif unmentioned:
            # Each side is duplicate-free; only cross-duplicates go.
            seen = set(branch)
            branch.extend([t for t in unmentioned if t not in seen])
    return branches, unmentioned


def merge_interned(
    d1: PackedDescriptor, d2: PackedDescriptor, shift: int
) -> PackedDescriptor | None:
    """The conjunction ``d1 ∧ d2`` as a sorted tuple, or ``None`` if mutex.

    Two descriptors are mutually exclusive when they assign the same variable
    different values; then their conjunction holds in no world.
    """
    merged: list[Packed] = []
    i = j = 0
    n1, n2 = len(d1), len(d2)
    while i < n1 and j < n2:
        a, b = d1[i], d2[j]
        if a == b:
            merged.append(a)
            i += 1
            j += 1
        elif a >> shift == b >> shift:
            return None  # same variable, different value: disjoint worlds
        elif a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
    merged.extend(d1[i:])
    merged.extend(d2[j:])
    return tuple(merged)


def inclusion_exclusion(
    descriptors: list[PackedDescriptor], shift: int
) -> list[tuple[bool, PackedDescriptor]]:
    """The inclusion-exclusion terms ``(positive, conjunction)`` of a ws-set.

    One term per descriptor subset with a consistent conjunction, in
    ascending subset order (it fixes the accumulation order of the value
    fold), by a subset dynamic program: ``conjunction[S] = conjunction[S \\
    lowbit] ∧ d_lowbit``.  ``positive`` is the subset's parity.
    """
    count = len(descriptors)
    if count == 1:
        return [(True, descriptors[0])]
    conjunction: list[PackedDescriptor | None] = [None] * (1 << count)
    terms = []
    for subset in range(1, 1 << count):
        low = subset & -subset
        rest = subset ^ low
        conjoined = descriptors[low.bit_length() - 1]
        if rest:
            prev = conjunction[rest]
            if prev is None:
                continue
            conjoined = merge_interned(prev, conjoined, shift)
            if conjoined is None:
                continue
        conjunction[subset] = conjoined
        terms.append((bool(subset.bit_count() & 1), conjoined))
    return terms


def inclusion_exclusion_value(terms, rows, shift: int, mask: int):
    """``Σ ± Π w`` over :func:`inclusion_exclusion` terms, ``w`` from ``rows``.

    The engine's closed form and a circuit's ``IE`` node both run this fold,
    so they agree to the bit at equal weights.
    """
    total = 0.0
    for positive, conjunction in terms:
        product = 1.0
        for packed in conjunction:
            product *= rows[packed >> shift][packed & mask]
        if positive:
            total += product
        else:
            total -= product
    return total


# ----------------------------------------------------------------------
# The iterative engine
# ----------------------------------------------------------------------
_PROD = 0  # ⊗-frame: accumulates Π (1 - P(child)); finishes as 1 - acc
_SUM = 1  # ⊕-frame: accumulates Σ weight · P(child); finishes as acc

#: Ws-sets of at most this many descriptors are resolved by the
#: inclusion-exclusion closed form (2^n − 1 conjunction terms) instead of a
#: decomposition subtree; 5 keeps the term count (31) well below the cost of
#: even one ⊕-expansion (measured optimum on the Figure 11a workload).
_CLOSED_FORM_LIMIT = 5

#: Ws-sets of more descriptors than this are never offered to the hit probe
#: (:meth:`InternedEngine.cached_wsset`): the probe runs on a server's event
#: loop, and the quadratic worst case of subsumption removal must stay in
#: ping territory (~0.15 ms at this size) however large a client's ws-set is.
_PROBE_LIMIT = 64
#: Entries an :attr:`InternedSpace.wire_cache` holds before it starts over.
_WIRE_CACHE_LIMIT = 1024


class _Frame:
    """One suspended ⊗- or ⊕-node of the explicit evaluation stack."""

    __slots__ = ("kind", "children", "weights", "index", "acc", "key", "depth")

    def __init__(self, kind, children, weights, key, depth):
        self.kind = kind
        self.children = children
        self.weights = weights
        self.index = 0
        self.acc = 1.0 if kind == _PROD else 0.0
        self.key = key
        self.depth = depth


class InternedEngine:
    """ComputeTree ∘ P over packed-int descriptors with an explicit stack.

    ``compute`` / ``compute_wsset`` are the entry points; ``stats``,
    ``cache_hits`` and a shareable ``budget`` ride along.  One engine
    instance may be reused across many ws-sets over the same world table —
    the memo cache then acts as a cross-query component cache, which is what
    the conditioning engine exploits for its delegated confidence
    subproblems.
    """

    def __init__(
        self,
        world_table: "WorldTable | None",
        config: "ExactConfig",
        budget: Budget | None = None,
        *,
        space=None,
    ) -> None:
        self.world_table = world_table
        self.config = config
        # ``space`` may stand in for the world table's interned space: any
        # dense id-space provider with ``shift``/``mask``/``weights`` and
        # ``domain_size`` works for the packed entry points (``run``), which
        # is how process workers evaluate components over a picklable
        # :class:`~repro.core.procpool.SpaceSnapshot` without shipping the
        # world table.  Interning entry points (``compute_wsset`` and
        # friends) additionally need the id maps of a real
        # :class:`InternedSpace`.
        self.space = space if space is not None else world_table.interned()
        self.heuristic = make_heuristic(config.heuristic)
        self.budget = budget if budget is not None else Budget(
            config.max_calls, config.time_limit
        )
        self.stats = DecompositionStats()
        self.memoize = config.memoize
        self.cache: dict[tuple, float] = make_memo(config.memo_limit)
        self.cache_hits = 0
        # Hot-loop bindings: resolved once so _expand avoids repeated
        # attribute chases on every node.
        self._use_independent_partitioning = config.use_independent_partitioning
        self._subsumption_every_step = config.subsumption_every_step
        self._tick = self.budget.tick

    def reset_budget(self, budget: Budget) -> None:
        """Install a fresh budget (handles re-arm per computation)."""
        self.budget = budget
        self._tick = budget.tick

    def phase_counters(self) -> dict[str, int]:
        """Cumulative hot-loop counters, cheap enough to read per phase.

        Memo lookups and inclusion-exclusion closed forms run millions of
        times per computation — far too hot to wrap in trace spans — so
        traces attribute them by *deltas of these counters* across the
        enclosing span instead (see :mod:`repro.obs`).
        """
        stats = self.stats
        return {
            "frames": stats.recursive_calls,
            "closed_form_nodes": stats.closed_form_nodes,
            "independent_nodes": stats.independent_nodes,
            "variable_nodes": stats.variable_nodes,
            "leaf_nodes": stats.leaf_nodes,
            "bottom_nodes": stats.bottom_nodes,
            "memo_hits": self.cache_hits,
        }

    def components_of(
        self, interned: list[PackedDescriptor]
    ) -> list[list[PackedDescriptor]]:
        """Variable-disjoint components of an interned ws-set, engine order.

        The split the engine's own root ⊗-node makes, for external callers —
        the parallel ⊗-component dispatcher — that evaluate the components
        themselves.
        """
        return connected_components_interned(interned, self.space.shift)

    def select_variable_id(self, counts, descriptor_count: int) -> int:
        """The variable the engine would eliminate next at a ⊕-node.

        ``counts`` maps the ws-set's packed assignments to their occurrences.
        The circuit recorder runs this as part of the same walk and the
        interned conditioning engine calls it, so conditioning eliminates
        what the engine would.  The choice depends only on occurrence counts
        and domain sizes, never on the weights themselves, which is what
        makes a recorded circuit valid under arbitrary re-weightings.
        """
        return self.heuristic.select_packed(counts, descriptor_count, self.space)

    # -- public entry points --------------------------------------------
    def compute_wsset(self, ws_set: "WSSet") -> float:
        """Probability of a :class:`WSSet` (interns, simplifies, evaluates)."""
        return self._evaluate(self.simplified(ws_set))

    def cached_wsset(self, ws_set: "WSSet") -> float | None:
        """Hit probe: :meth:`compute_wsset` iff it costs one frame, else ``None``.

        Answers exactly when the top-level :meth:`_expand` resolves without
        pushing a frame — the memo holds the whole ws-set, or it is empty,
        contains ∅ or fits the closed form — with the counters of that one
        frame; a miss (and a ws-set of over :data:`_PROBE_LIMIT` distinct
        interned descriptors) leaves every counter as it was.
        """
        interned = self.space.intern_wsset(ws_set)
        if len(interned) > _PROBE_LIMIT:
            return None
        return self._expand(self._simplify(interned), 0, None, False)

    def simplified(self, ws_set: "WSSet") -> list[PackedDescriptor]:
        """A :class:`WSSet` interned, with the input simplifications applied."""
        return self._simplify(self.space.intern_wsset(ws_set))

    def compute(self, descriptors: list[dict]) -> float:
        """Probability of a ws-set given as plain-dict descriptors."""
        return self._evaluate(
            self._simplify(self.space.intern_descriptors(descriptors))
        )

    def run(self, interned: list[PackedDescriptor]) -> float:
        """Probability of an already-interned, already-simplified ws-set."""
        return self._evaluate(interned)

    def compute_interned(self, interned: list[PackedDescriptor]) -> float:
        """Probability of an interned ws-set (applies the input simplifications).

        The entry point for callers that already live in the packed-int id
        space — the interned conditioning engine delegates its
        confidence-only subproblems here without ever materialising dict
        descriptors; its lists may hold duplicates, so they are dropped first.
        """
        return self._evaluate(self._simplify(deduplicate_interned(interned)))

    def _simplify(self, interned: list[PackedDescriptor]) -> list[PackedDescriptor]:
        # ``interned`` is duplicate-free, so only mixed sizes leave work.
        if self.config.simplify_subsumed and mixed_sizes(interned):
            return remove_subsumed_interned(interned)
        return interned

    # -- iterative evaluation -------------------------------------------
    def _evaluate(self, descriptors: list[PackedDescriptor]) -> float:
        """Explicit-stack evaluation of the Figure 7 probability recursion."""
        stack: list[_Frame] = []
        expand = self._expand
        cache = self.cache
        value = expand(descriptors, 0, stack, False)
        while stack:
            frame = stack[-1]
            if value is not None:
                # Fold the child value just computed into the suspended node.
                if frame.kind == _PROD:
                    frame.acc *= 1.0 - value
                else:
                    frame.acc += frame.weights[frame.index - 1] * value
            if frame.index < len(frame.children):
                child = frame.children[frame.index]
                frame.index += 1
                value = expand(child, frame.depth + 1, stack, frame.kind == _PROD)
            else:
                stack.pop()
                value = 1.0 - frame.acc if frame.kind == _PROD else frame.acc
                if frame.key is not None:
                    cache[frame.key] = value
        return value if value is not None else 0.0

    def _expand(
        self,
        descriptors: list[PackedDescriptor],
        depth: int,
        stack: list[_Frame],
        from_independent: bool,
    ):
        """Resolve a ws-set to a fold result, or push a frame and return ``None``.

        The one decomposition walk: the value fold returns probabilities, the
        recorder's (:mod:`repro.circuit.recorder`) node ids.  ``stack=None``
        is the hit probe (:meth:`cached_wsset`): where a frame would be
        pushed the call is taken back and ``None`` returned.

        ``from_independent`` marks the children of a ⊗-node: they are maximal
        connected components of an already-simplified ws-set, so re-running
        the component search (it would find one component) and the per-step
        subsumption pass (the parent's pass already covered every subsuming
        pair, which always shares variables and thus lands in one component)
        is provably redundant and skipped.
        """
        self._tick()
        stats = self.stats
        stats.recursive_calls += 1
        if depth > stats.max_depth:
            stats.max_depth = depth

        if not descriptors:
            stats.bottom_nodes += 1
            return self._constant(0.0)
        if () in descriptors:  # the nullary descriptor: the ∅ leaf
            stats.leaf_nodes += 1
            return self._constant(1.0)

        if len(descriptors) <= _CLOSED_FORM_LIMIT:
            # Inclusion-exclusion closed form: no elimination tree needed.
            stats.closed_form_nodes += 1
            return self._closed_form(descriptors)

        if self._subsumption_every_step and not from_independent:
            descriptors = remove_subsumed_interned(descriptors)

        key = None
        if self.memoize:
            key = tuple(sorted(descriptors))
            cached = self.cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached
        if stack is None:
            stats.recursive_calls -= 1
            return None

        space = self.space
        shift = space.shift
        if self._use_independent_partitioning and not from_independent:
            components = connected_components_interned(descriptors, shift)
            if len(components) > 1:
                stats.independent_nodes += 1
                stack.append(_Frame(_PROD, components, None, key, depth))
                return None

        # ⊕-node: eliminate a variable.
        counts = Counter(chain.from_iterable(descriptors))
        variable_id = self.select_variable_id(counts, len(descriptors))
        stats.variable_nodes += 1
        branches, unmentioned = split_on_variable_interned(
            descriptors, variable_id, shift, len(space.weights[variable_id])
        )
        stack.append(self._sum_frame(variable_id, branches, unmentioned, key, depth))
        return None

    # -- the value fold -----------------------------------------------------
    # ``_expand`` is the one walk; these three methods are where a fold
    # differs.  The engine folds values; CircuitRecorder folds node ids.
    def _constant(self, value: float) -> float:
        """A leaf: ``0.0`` for ⊥, ``1.0`` for ∅."""
        return value

    def _closed_form(self, descriptors: list[PackedDescriptor]) -> float:
        """A ws-set of at most :data:`_CLOSED_FORM_LIMIT` descriptors, exactly:
        a few dozen float multiplications instead of a decomposition subtree."""
        space = self.space
        shift = space.shift
        return inclusion_exclusion_value(
            inclusion_exclusion(descriptors, shift), space.weights, shift, space.mask
        )

    def _sum_frame(self, variable_id, branches, unmentioned, key, depth) -> _Frame:
        """The ⊕-frame of a split, zero-weight values skipped; the absent
        values share ``T`` (Figure 4, footnote) with their summed weight."""
        children: list[list[PackedDescriptor]] = []
        weights: list[float] = []
        certain_weight = 0.0
        absent_weight = 0.0
        for branch, weight in zip(branches, self.space.weights[variable_id]):
            if weight == 0.0:
                continue
            if branch is None:
                absent_weight += weight
            elif branch is CERTAIN:
                certain_weight += weight
            else:
                children.append(branch)
                weights.append(weight)
        if absent_weight > 0.0 and unmentioned:
            children.append(unmentioned)
            weights.append(absent_weight)
        frame = _Frame(_SUM, children, weights, key, depth)
        frame.acc = certain_weight
        return frame
