"""Shared scaffolding of the decomposition engines (paper, Section 4).

ComputeTree (Figure 4) turns a ws-set into a ws-tree by two rules:
independent partitioning (an ⊗-node over variable-disjoint components) and
variable elimination (an ⊕-node with one branch per domain value, values
absent from the ws-set sharing one translation of ``T``).  The repository
writes that recursion once, as :meth:`InternedEngine._expand
<repro.core.interned.InternedEngine._expand>`, and folds it two ways: the
engine folds values (the probability computation of Figure 7), and its
subclass :class:`~repro.circuit.recorder.CircuitRecorder` folds node ids
into a :class:`~repro.circuit.circuit.Circuit`, the explicit ws-tree.
Conditioning (Figure 8) reuses the walk's ⊕ split.

This module holds what the engine, the recorder and conditioning share: the
:class:`Budget` resource guard, the :class:`BoundedMemo` cache, the
:class:`DecompositionStats` counters, the recursion-depth guard and the
subsumption pass :func:`kept_after_subsumption`.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
from dataclasses import dataclass, field

from repro.errors import BudgetExceededError

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
    #: Conditioning only: the variable of each ⊕-node, in visiting order.
    eliminated_variables: list = field(default_factory=list)
    #: Conditioning only: subproblems answered from / added to the run's memo.
    memo_hits: int = 0
    memo_misses: int = 0


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
