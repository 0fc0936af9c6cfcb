"""CircuitRecorder: the node fold of the interned engine's one decomposition walk.

:meth:`InternedEngine._expand <repro.core.interned.InternedEngine._expand>`
is the one ws-set walk — leaves, the closed-form limit, per-step
subsumption, the memo probe, the ⊗ split, variable selection, the ⊕ split —
and three hooks decide what a resolved ws-set becomes: ``_constant``,
``_closed_form`` and ``_sum_frame``.  The engine folds values;
:class:`CircuitRecorder` subclasses it and folds node ids, emitting
:class:`~repro.circuit.circuit.Circuit` nodes in post-order (children before
parents), so the node list is topologically sorted and the recorded
structure is the evaluated structure by construction.

The folds differ in one place.  The engine skips ⊕ values of weight ``0.0``;
the recorder keeps them — and records the shared ``T`` branch whenever
absent values *exist* — because a re-weighting may revive them.  At the
recording weights they add exact ``+0.0`` terms, so the circuit still
evaluates bit-identically to the engine.  The memo probe is the engine's,
over the recorder's own ``cache`` of node ids: repeated sub-ws-sets become
shared DAG nodes exactly where the engine's memo would hit.  Compiles tick
the engine's :class:`~repro.core.decompose.Budget` once per expanded node,
so a pathological compile raises :class:`~repro.errors.BudgetExceededError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.circuit.circuit import CONST, IE, PROD, SUM, Circuit
from repro.core.interned import (
    _PROD,
    _SUM,
    CERTAIN,
    InternedEngine,
    _Frame,
    inclusion_exclusion,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.interned import PackedDescriptor


class CircuitRecorder(InternedEngine):
    """Record one ws-set's decomposition over an engine's space and config.

    A recorder is single-use: :meth:`record` consumes it and returns the
    :class:`Circuit`.  It shares the engine's space, config, heuristic and
    budget, and has its own ``stats`` and memo; the engine itself is never
    mutated (the budget ticks are the exception, and exactly the point:
    compiles are budgeted computations).
    """

    def __init__(self, engine: InternedEngine) -> None:
        super().__init__(
            engine.world_table, engine.config, engine.budget, space=engine.space
        )
        self.heuristic = engine.heuristic
        #: Engine-canonical key (sorted descriptor tuple) -> node id.
        self.cache = {}
        self._nodes: list[tuple] = []
        #: Ordered descriptor tuple -> node id for closed-form leaves.  Keyed
        #: by *input order*, not canonically: the inclusion-exclusion subset
        #: enumeration follows the input order, and two orderings of the same
        #: set accumulate in different sequences (different last bits).
        self._ie_memo: dict[tuple, int] = {}
        self._const_ids: dict[float, int] = {}

    def record(self, interned: "list[PackedDescriptor]") -> Circuit:
        """Compile an already-simplified interned ws-set into a circuit.

        ``interned`` must have been produced the way the engine's own entry
        path produces it — interned against this engine's space, then
        deduplicated and (per config) subsumption-simplified — so the
        recorded walk starts from exactly the engine's root ws-set.
        """
        descriptors = list(interned)
        stack: list[_Frame] = []
        expand = self._expand
        node = expand(descriptors, 0, stack, False)
        while stack:
            frame = stack[-1]
            if node is None:  # a frame just pushed: ``acc`` collects child ids
                frame.acc = []
            else:
                frame.acc.append(node)
            if frame.index < len(frame.children):
                child = frame.children[frame.index]
                frame.index += 1
                node = expand(child, frame.depth + 1, stack, frame.kind == _PROD)
                continue
            stack.pop()
            built = frame.acc
            if frame.kind == _PROD:
                node = self._emit((PROD, tuple(built)))
            else:
                variable_id, certain, branch_ids, absent_ids = frame.weights
                absent_child = built.pop() if len(built) > len(branch_ids) else None
                branches = tuple(zip(branch_ids, built))
                node = self._emit(
                    (SUM, variable_id, certain, branches, absent_ids, absent_child)
                )
            if frame.key is not None:
                self.cache[frame.key] = node
        shift = self.space.shift
        variable_ids = frozenset(
            packed >> shift for descriptor in descriptors for packed in descriptor
        )
        return Circuit(self.space, self._nodes, node, tuple(descriptors), variable_ids)

    def _emit(self, node: tuple) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    # -- the node fold ------------------------------------------------------
    def _constant(self, value: float) -> int:
        index = self._const_ids.get(value)
        if index is None:
            index = self._const_ids[value] = self._emit((CONST, value))
        return index

    def _closed_form(self, descriptors: "list[PackedDescriptor]") -> int:
        ordered = tuple(descriptors)
        index = self._ie_memo.get(ordered)
        if index is None:
            terms = inclusion_exclusion(descriptors, self.space.shift)
            index = self._ie_memo[ordered] = self._emit((IE, tuple(terms)))
        return index

    def _sum_frame(self, variable_id, branches, unmentioned, key, depth) -> _Frame:
        """The ⊕-frame of a split, every value kept; ``weights`` holds the
        ``SUM`` node's fields until its children are built."""
        certain: list[int] = []
        branch_ids: list[int] = []
        children: list = []
        absent_ids: list[int] = []
        for value_id, branch in enumerate(branches):
            if branch is None:
                absent_ids.append(value_id)
            elif branch is CERTAIN:
                certain.append(value_id)
            else:
                branch_ids.append(value_id)
                children.append(branch)
        if absent_ids and unmentioned:  # whatever the absent values weigh
            children.append(unmentioned)
        fields = (variable_id, tuple(certain), tuple(branch_ids), tuple(absent_ids))
        return _Frame(_SUM, children, fields, key, depth)
