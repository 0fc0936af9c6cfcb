"""CircuitRecorder: replay the interned engine's decomposition into a DAG.

The recorder is an explicit-stack walker over the *same* decomposition the
:class:`~repro.core.interned.InternedEngine` would run — same entry
simplifications, same per-step subsumption, same component split, same
variable-selection dispatch (shared via
:meth:`InternedEngine.select_variable_id`), same memoisation policy — but
instead of folding probabilities it emits :class:`~repro.circuit.circuit.
Circuit` nodes in post-order (children before parents), which makes the node
list topologically sorted for free.

Two deliberate differences from an evaluation run:

* **zero-weight completeness** — the engine skips branches whose weight is
  ``0.0`` at evaluation time; the recorder expands them anyway, because under
  the re-weightings a circuit exists to answer they may become reachable.
  At the recording weights these branches contribute exact ``+0.0`` terms,
  which leaves every IEEE-754 accumulation bit-unchanged — the recorded
  circuit still evaluates bit-identically to the engine.  For the same
  reason the shared ``T`` branch is recorded whenever absent domain values
  *exist* (the engine gates on their current summed weight being positive).
* **memoisation always mirrors the engine's policy** — with memoisation on
  (the default) structurally repeated sub-ws-sets become shared DAG nodes
  under the engine's own canonical key, so the circuit is exactly as
  compact as the engine's memo was effective; with memoisation off the
  recorder doesn't share either, keeping the recorded accumulation orders
  aligned with what the engine would actually compute.

Compilation is budgeted like a computation: the recorder ticks the engine's
:class:`~repro.core.decompose.Budget` once per expanded node, so a
pathological compile raises :class:`~repro.errors.BudgetExceededError`
instead of hanging.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.circuit.circuit import CONST, IE, PROD, SUM, Circuit
from repro.core.interned import (
    _CLOSED_FORM_LIMIT,
    connected_components_interned,
    count_occurrences_interned,
    merge_interned,
    remove_subsumed_interned,
    split_on_variable_interned,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.interned import InternedEngine, PackedDescriptor


class _RecorderFrame:
    """One suspended ⊗- or ⊕-node: children pending expansion, ids built."""

    __slots__ = ("kind", "pending", "index", "built", "key", "meta")

    def __init__(self, kind, pending, key, meta=None):
        self.kind = kind
        self.pending = pending
        self.index = 0
        self.built: list[int] = []
        self.key = key
        self.meta = meta


class CircuitRecorder:
    """Record one ws-set's decomposition over an engine's space and config.

    A recorder is single-use: :meth:`record` consumes it and returns the
    :class:`Circuit`.  The engine is only read — its space, config,
    heuristic dispatch and budget — never mutated (the budget ticks are the
    exception, and exactly the point: compiles are budgeted computations).
    """

    def __init__(self, engine: "InternedEngine") -> None:
        self._engine = engine
        space = engine.space
        self._space = space
        self._shift: int = space.shift
        self._mask: int = space.mask
        config = engine.config
        self._use_independent_partitioning = config.use_independent_partitioning
        self._subsumption_every_step = config.subsumption_every_step
        self._memoize = engine.memoize
        self._nodes: list[tuple] = []
        #: Engine-canonical key (sorted descriptor tuple) -> node id, for the
        #: big sub-ws-sets the engine would memoise.
        self._memo: dict[tuple, int] = {}
        #: Ordered descriptor tuple -> node id for closed-form leaves.  Keyed
        #: by *input order*, not canonically: the inclusion-exclusion subset
        #: enumeration follows the input order, and two orderings of the same
        #: set accumulate in different sequences (different last bits).
        self._ie_memo: dict[tuple, int] = {}
        self._const_ids: dict[float, int] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def record(self, interned: "list[PackedDescriptor]") -> Circuit:
        """Compile an already-simplified interned ws-set into a circuit.

        ``interned`` must have been produced the way the engine's own entry
        path produces it — interned against this engine's space, then
        deduplicated and (per config) subsumption-simplified — so the
        recorded traversal starts from exactly the engine's root ws-set.
        """
        descriptors = list(interned)
        stack: list[_RecorderFrame] = []
        node = self._expand(descriptors, stack, False)
        while stack:
            frame = stack[-1]
            if node is not None:
                frame.built.append(node)
            if frame.index < len(frame.pending):
                child = frame.pending[frame.index]
                frame.index += 1
                node = self._expand(child, stack, frame.kind == PROD)
            else:
                stack.pop()
                node = self._finish(frame)
        assert node is not None
        shift = self._shift
        variable_ids = frozenset(
            packed >> shift for descriptor in descriptors for packed in descriptor
        )
        return Circuit(
            self._space,
            self._nodes,
            node,
            tuple(descriptors),
            variable_ids,
        )

    # ------------------------------------------------------------------
    # Node emission
    # ------------------------------------------------------------------
    def _emit(self, node: tuple) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _const(self, value: float) -> int:
        index = self._const_ids.get(value)
        if index is None:
            index = self._emit((CONST, value))
            self._const_ids[value] = index
        return index

    # ------------------------------------------------------------------
    # The mirrored _expand
    # ------------------------------------------------------------------
    def _expand(
        self,
        descriptors: "list[PackedDescriptor]",
        stack: list[_RecorderFrame],
        from_independent: bool,
    ) -> int | None:
        """Resolve a ws-set to a node id, or push a frame and return ``None``.

        Step for step the engine's ``_expand``: leaves, the closed-form
        limit, per-step subsumption, the memo probe, the component split and
        the ⊕-split all happen in the same order on the same inputs, so the
        recorded structure is the evaluated structure.
        """
        self._engine.budget.tick()
        if not descriptors:
            return self._const(0.0)
        if () in descriptors:  # the nullary descriptor: the ∅ leaf
            return self._const(1.0)

        if len(descriptors) <= _CLOSED_FORM_LIMIT:
            return self._closed_form(descriptors)

        if self._subsumption_every_step and not from_independent:
            descriptors = remove_subsumed_interned(descriptors)

        key = None
        if self._memoize:
            key = tuple(sorted(descriptors))
            cached = self._memo.get(key)
            if cached is not None:
                return cached

        shift = self._shift
        if self._use_independent_partitioning and not from_independent:
            components = connected_components_interned(descriptors, shift)
            if len(components) > 1:
                stack.append(_RecorderFrame(PROD, components, key))
                return None

        # ⊕-node: eliminate the variable the engine would.
        occurrences = count_occurrences_interned(descriptors, shift, self._mask)
        variable_id = self._engine.select_variable_id(occurrences, len(descriptors))
        by_value, unmentioned = split_on_variable_interned(
            descriptors, variable_id, shift
        )
        domain_size = len(self._space.weights[variable_id])
        certain: list[int] = []
        branch_ids: list[int] = []
        pending: list[list] = []
        for value_id in sorted(by_value):
            branch = by_value[value_id]
            if () in branch:
                # A descriptor consisted solely of this assignment: the
                # branch ws-set contains ∅ and has probability one.
                certain.append(value_id)
            else:
                if unmentioned:
                    branch_set = set(branch)
                    branch = branch + [t for t in unmentioned if t not in branch_set]
                branch_ids.append(value_id)
                pending.append(branch)
        absent_ids = tuple(
            value_id for value_id in range(domain_size) if value_id not in by_value
        )
        # The shared T branch exists whenever absent values *exist* — not
        # merely when their current weights sum to something positive, since
        # a re-weighting may revive them.
        has_absent = bool(absent_ids) and bool(unmentioned)
        if has_absent:
            pending.append(unmentioned)
        meta = (
            variable_id,
            tuple(certain),
            tuple(branch_ids),
            absent_ids,
            has_absent,
        )
        stack.append(_RecorderFrame(SUM, pending, key, meta))
        return None

    def _finish(self, frame: _RecorderFrame) -> int:
        if frame.kind == PROD:
            node: tuple = (PROD, tuple(frame.built))
        else:
            variable_id, certain, branch_ids, absent_ids, has_absent = frame.meta
            if has_absent:
                absent_child: int | None = frame.built[-1]
                branches = tuple(zip(branch_ids, frame.built[:-1]))
            else:
                absent_child = None
                branches = tuple(zip(branch_ids, frame.built))
            node = (SUM, variable_id, certain, branches, absent_ids, absent_child)
        index = self._emit(node)
        if frame.key is not None:
            self._memo[frame.key] = index
        return index

    # ------------------------------------------------------------------
    # Closed-form (inclusion-exclusion) leaves
    # ------------------------------------------------------------------
    def _closed_form(self, descriptors: "list[PackedDescriptor]") -> int:
        """An IE node mirroring ``_small_probability``'s subset enumeration."""
        ordered = tuple(descriptors)
        cached = self._ie_memo.get(ordered)
        if cached is not None:
            return cached
        count = len(descriptors)
        terms: list[tuple[bool, tuple]] = []
        if count == 1:
            terms.append((True, descriptors[0]))
        else:
            shift = self._shift
            conjunction: list = [None] * (1 << count)
            for subset in range(1, 1 << count):
                low = subset & -subset
                rest = subset ^ low
                if rest == 0:
                    conjoined = descriptors[low.bit_length() - 1]
                else:
                    prev = conjunction[rest]
                    if prev is None:
                        continue
                    conjoined = merge_interned(
                        prev, descriptors[low.bit_length() - 1], shift
                    )
                    if conjoined is None:
                        continue
                conjunction[subset] = conjoined
                terms.append((bool(subset.bit_count() & 1), conjoined))
        index = self._emit((IE, tuple(terms)))
        self._ie_memo[ordered] = index
        return index
