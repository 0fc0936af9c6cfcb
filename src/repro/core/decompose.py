"""Translating ws-sets into ws-trees: the ComputeTree procedure (paper, Figure 4).

The decomposition is a divide-and-conquer recursion with two rules:

* **independent partitioning** — if the ws-set splits into variable-disjoint
  subsets (connected components of the variable co-occurrence graph), emit an
  ⊗-node whose children are the recursive translations of the components;
* **variable elimination** — otherwise choose a variable ``x`` (using a
  heuristic from :mod:`repro.core.heuristics`) and emit an ⊕-node with one
  branch per domain value ``i`` of ``x``, recursing on
  ``S_{x→i} ∪ T`` where ``S_{x→i}`` are the descriptors containing ``x → i``
  with that assignment removed and ``T`` are the descriptors not mentioning
  ``x``.  Domain values not occurring in the ws-set share a single
  translation of ``T`` (the footnote to Figure 4).

The recursion bottoms out at ⊥ for the empty ws-set and at the ∅ leaf as soon
as the ws-set contains the nullary descriptor.

This module materialises the explicit :class:`~repro.core.wstree.WSTree`;
confidence computation and conditioning use the same recursion *fused* with
the probability computation (see :mod:`repro.core.probability` and
:mod:`repro.core.conditioning`), exactly as the paper's implementation does.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.descriptors import WSDescriptor
from repro.core.heuristics import Heuristic, count_occurrences, make_heuristic
from repro.core.wsset import WSSet
from repro.core.wstree import BOTTOM, LEAF, IndependentNode, VariableNode, WSTree
from repro.errors import BudgetExceededError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import Value, Variable, WorldTable
else:
    Variable = object
    Value = object

#: Internal descriptor representation used by the decomposition engine: plain
#: dicts are noticeably faster than :class:`WSDescriptor` objects in the hot
#: recursion, and the engine never needs hashing of whole descriptors.
Descriptor = dict

#: Recursion depth the engines guarantee to support.  One variable is
#: eliminated per level, so the depth is bounded by the number of variables of
#: the largest connected component plus a small constant; large instances can
#: exceed CPython's default limit of 1000.
GUARANTEED_RECURSION_DEPTH = 20_000


@contextlib.contextmanager
def recursion_guard(minimum: int = GUARANTEED_RECURSION_DEPTH):
    """Temporarily raise the interpreter recursion limit for deep eliminations."""
    previous = sys.getrecursionlimit()
    if previous < minimum:
        sys.setrecursionlimit(minimum)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


@dataclass
class DecompositionStats:
    """Counters describing one decomposition / confidence computation run."""

    recursive_calls: int = 0
    independent_nodes: int = 0
    variable_nodes: int = 0
    leaf_nodes: int = 0
    bottom_nodes: int = 0
    #: Small sub-ws-sets (up to the interned engine's closed-form limit,
    #: see ``repro.core.interned._CLOSED_FORM_LIMIT``) resolved by the
    #: inclusion-exclusion closed form instead of a decomposition subtree.
    closed_form_nodes: int = 0
    max_depth: int = 0
    eliminated_variables: list = field(default_factory=list)
    #: Conditioning only: subproblems answered from / added to the run's memo.
    memo_hits: int = 0
    memo_misses: int = 0

    def node_count(self) -> int:
        """Total number of ws-tree nodes produced (or that would be produced)."""
        return (
            self.independent_nodes
            + self.variable_nodes
            + self.leaf_nodes
            + self.bottom_nodes
        )


class Budget:
    """Optional resource guard shared by the recursive engines.

    Raises :class:`~repro.errors.BudgetExceededError` when the number of
    recursive calls or the elapsed wall-clock time exceeds the limits.  Both
    limits are optional; the default budget is unlimited.
    """

    __slots__ = ("max_calls", "time_limit", "_calls", "_started")

    def __init__(
        self, max_calls: int | None = None, time_limit: float | None = None
    ) -> None:
        self.max_calls = max_calls
        self.time_limit = time_limit
        self._calls = 0
        self._started = time.monotonic()

    def tick(self) -> None:
        """Record one recursive call and enforce the limits.

        The call-count limit is exact.  The wall-clock check runs on the very
        first call and every 256th call thereafter; when no ``max_calls`` cap
        is set the clock is the *only* guard, so it is then checked on every
        call rather than letting a slow expansion overshoot by up to 255
        calls.
        """
        self._calls += 1
        if self.max_calls is not None and self._calls > self.max_calls:
            raise BudgetExceededError(
                f"decomposition exceeded {self.max_calls} recursive calls",
                nodes=self._calls,
            )
        if self.time_limit is not None and (
            self.max_calls is None or self._calls == 1 or self._calls % 256 == 0
        ):
            elapsed = time.monotonic() - self._started
            if elapsed > self.time_limit:
                raise BudgetExceededError(
                    f"decomposition exceeded the time limit of {self.time_limit}s",
                    elapsed=elapsed,
                    nodes=self._calls,
                )

    @property
    def calls(self) -> int:
        return self._calls


class BoundedMemo(dict):
    """A memo cache with a size bound and clear-half eviction.

    Behaves like a plain ``dict`` except that inserting a *new* key while the
    cache holds ``max_entries`` entries first evicts the oldest half of the
    entries (dicts iterate in insertion order, so the front of the dict is the
    least recently *inserted* half).  Hits do not refresh entries — this is
    deliberately FIFO-flavoured: eviction happens in one O(n) sweep every
    ``max_entries / 2`` insertions instead of per-lookup bookkeeping on the
    engines' hottest path.  Used for long-running shared engines (sessions,
    servers) whose memo would otherwise grow without bound.
    """

    __slots__ = ("max_entries", "evictions")

    def __init__(self, max_entries: int) -> None:
        super().__init__()
        if max_entries < 2:
            raise ValueError("memo_limit must be at least 2")
        self.max_entries = max_entries
        self.evictions = 0

    def __setitem__(self, key, value) -> None:
        if len(self) >= self.max_entries and key not in self:
            drop = len(self) - self.max_entries // 2
            for stale in list(itertools.islice(iter(self), drop)):
                del self[stale]
            self.evictions += drop
        super().__setitem__(key, value)


def make_memo(max_entries: "int | None") -> dict:
    """The memo dict used by the engines: bounded iff ``max_entries`` is set."""
    return BoundedMemo(max_entries) if max_entries is not None else {}


# ----------------------------------------------------------------------
# Shared engine helpers (also used by probability / conditioning)
# ----------------------------------------------------------------------
def to_internal(ws_set: WSSet) -> list[Descriptor]:
    """Convert a :class:`WSSet` into the engine's plain-dict representation."""
    return [dict(descriptor.items()) for descriptor in ws_set]


def kept_after_subsumption(items: list[set]) -> list[int]:
    """Indices of the items surviving subsumption removal, in input order.

    An item is *subsumed* when another item is a subset of it — a strict
    subset, or an equal set occurring earlier in the input (so among exact
    duplicates the first occurrence wins).  Items are processed in ascending
    size (ties broken by input position); testing against removed items is
    unnecessary because subsumption is transitive.  Every kept item is filed
    under one of its elements, and a candidate is tested only against the
    items filed under its own elements: a subset's filing element belongs to
    the candidate, so no subsuming item is missed, and sparse inputs cost
    time linear in their total size instead of one test per kept item.
    """
    order = sorted(range(len(items)), key=lambda index: (len(items[index]), index))
    if order and not items[order[0]]:
        return [order[0]]  # the first empty item subsumes every other item
    kept: list[int] = []
    filed: dict = {}
    for index in order:
        candidate = items[index]
        for element in candidate:
            for smaller in filed.get(element, ()):
                if smaller <= candidate:
                    break
            else:
                continue
            break
        else:
            kept.append(index)
            filed.setdefault(next(iter(candidate)), []).append(candidate)
    kept.sort()
    return kept


def remove_subsumed(descriptors: list[Descriptor]) -> list[Descriptor]:
    """Drop descriptors that extend (are contained in) another descriptor.

    Exposing containment helps the independence check (Example 3.2 of the
    paper).  Candidates are tested only against strictly-smaller-or-equal
    surviving descriptors (a size-sorted pass); among duplicates the first
    occurrence wins, and the output preserves the input order.
    """
    if len(descriptors) <= 1:
        return list(descriptors)
    kept = kept_after_subsumption([set(d.items()) for d in descriptors])
    if len(kept) == len(descriptors):
        return list(descriptors)
    return [descriptors[index] for index in kept]


def deduplicate(descriptors: list[Descriptor]) -> list[Descriptor]:
    """Remove exact duplicate descriptors, preserving first-occurrence order."""
    seen: set[frozenset] = set()
    unique: list[Descriptor] = []
    for descriptor in descriptors:
        key = frozenset(descriptor.items())
        if key not in seen:
            seen.add(key)
            unique.append(descriptor)
    return unique


def connected_components(descriptors: list[Descriptor]) -> list[list[Descriptor]]:
    """Partition a ws-set into variable-disjoint (independent) components.

    Components are the connected components of the graph whose nodes are the
    variables and whose edges link variables co-occurring in a descriptor;
    each descriptor belongs to exactly one component.  Computed with a
    union-find structure in near-linear time, as suggested in Section 4.2.
    """
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for descriptor in descriptors:
        variables = list(descriptor)
        for variable in variables:
            parent.setdefault(variable, variable)
        first = variables[0]
        for variable in variables[1:]:
            union(first, variable)

    groups: dict = {}
    for descriptor in descriptors:
        root = find(next(iter(descriptor)))
        groups.setdefault(root, []).append(descriptor)
    return list(groups.values())


def split_on_variable(
    descriptors: list[Descriptor], variable: Variable
) -> tuple[dict, list[Descriptor]]:
    """Split a ws-set on ``variable``.

    Returns ``(by_value, unmentioned)`` where ``by_value[i]`` is the list of
    descriptors containing ``variable -> i`` with that assignment removed
    (``S_{x→i}`` in Figure 4) and ``unmentioned`` is ``T``, the descriptors
    that do not mention the variable.
    """
    by_value: dict = {}
    unmentioned: list[Descriptor] = []
    for descriptor in descriptors:
        if variable in descriptor:
            reduced = {k: v for k, v in descriptor.items() if k != variable}
            by_value.setdefault(descriptor[variable], []).append(reduced)
        else:
            unmentioned.append(descriptor)
    return by_value, unmentioned


# ----------------------------------------------------------------------
# ComputeTree
# ----------------------------------------------------------------------
def compute_tree(
    ws_set: WSSet,
    world_table: "WorldTable",
    *,
    heuristic: "str | Heuristic" = "minlog",
    use_independent_partitioning: bool = True,
    simplify_subsumed: bool = True,
    budget: Budget | None = None,
    stats: DecompositionStats | None = None,
) -> WSTree:
    """Translate a ws-set into an equivalent ws-tree (Figure 4, ComputeTree).

    Parameters
    ----------
    ws_set:
        The ws-set to translate.
    world_table:
        Supplies the variable domains (needed to enumerate branches and by the
        heuristics' cost estimates).
    heuristic:
        Variable-elimination heuristic name or instance (default ``minlog``).
    use_independent_partitioning:
        When true (INDVE) the ⊗-rule is tried before every variable
        elimination; when false (VE) only variable elimination is used.
    simplify_subsumed:
        Remove subsumed descriptors before decomposing (helps expose
        independence, see Example 3.2).
    budget:
        Optional :class:`Budget` limiting recursion count / wall-clock time.
    stats:
        Optional :class:`DecompositionStats` to fill with counters.

    Returns
    -------
    WSTree
        A tree representing exactly the same world-set (Theorem 4.4), which
        can be checked via ``tree.to_wsset()`` and validated with
        ``tree.validate(world_table)``.
    """
    chooser = make_heuristic(heuristic)
    budget = budget or Budget()
    stats = stats if stats is not None else DecompositionStats()
    descriptors = deduplicate(to_internal(ws_set))
    if simplify_subsumed:
        descriptors = remove_subsumed(descriptors)
    with recursion_guard():
        return _compute_tree(
            descriptors,
            world_table,
            chooser,
            use_independent_partitioning,
            budget,
            stats,
            depth=0,
        )


def _compute_tree(
    descriptors: list[Descriptor],
    world_table: "WorldTable",
    heuristic: Heuristic,
    use_independent_partitioning: bool,
    budget: Budget,
    stats: DecompositionStats,
    depth: int,
) -> WSTree:
    budget.tick()
    stats.recursive_calls += 1
    stats.max_depth = max(stats.max_depth, depth)

    if not descriptors:
        stats.bottom_nodes += 1
        return BOTTOM
    if any(not descriptor for descriptor in descriptors):
        stats.leaf_nodes += 1
        return LEAF

    if use_independent_partitioning:
        components = connected_components(descriptors)
        if len(components) > 1:
            stats.independent_nodes += 1
            children = tuple(
                _compute_tree(
                    component,
                    world_table,
                    heuristic,
                    use_independent_partitioning,
                    budget,
                    stats,
                    depth + 1,
                )
                for component in components
            )
            return IndependentNode(children)

    occurrences = count_occurrences(descriptors)
    variable = heuristic.select_variable(occurrences, len(descriptors), world_table)
    stats.eliminated_variables.append(variable)
    by_value, unmentioned = split_on_variable(descriptors, variable)

    stats.variable_nodes += 1
    branches: list[tuple[Value, WSTree]] = []
    shared_t_subtree: WSTree | None = None
    for value in world_table.domain(variable):
        if value in by_value:
            subset = deduplicate(by_value[value] + unmentioned)
            child = _compute_tree(
                subset,
                world_table,
                heuristic,
                use_independent_partitioning,
                budget,
                stats,
                depth + 1,
            )
        else:
            # Values not occurring in the ws-set all lead to ComputeTree(T);
            # translate T only once and share the subtree (Figure 4, footnote).
            if shared_t_subtree is None:
                shared_t_subtree = _compute_tree(
                    list(unmentioned),
                    world_table,
                    heuristic,
                    use_independent_partitioning,
                    budget,
                    stats,
                    depth + 1,
                )
            child = shared_t_subtree
        if isinstance(child, type(BOTTOM)):
            # An all-⊥ branch contributes nothing; VariableNode treats missing
            # values as ⊥, so we can omit the edge entirely.
            continue
        branches.append((value, child))

    if not branches:
        stats.bottom_nodes += 1
        return BOTTOM
    return VariableNode(variable, tuple(branches))


def tree_to_wsset(tree: WSTree) -> WSSet:
    """The ws-set of all root-to-leaf paths of ``tree`` (its world-set)."""
    return tree.to_wsset()


def wsset_from_paths(paths: list[dict]) -> WSSet:
    """Build a :class:`WSSet` from raw path-annotation dictionaries."""
    return WSSet(WSDescriptor(path) for path in paths)
