"""Read a recorded :class:`~repro.circuit.circuit.Circuit` back as a ws-set.

A recorded circuit is the ws-tree of Definition 4.1 that the engine's
decomposition built, so Theorem 4.4 — the tree represents exactly the
worlds of the ws-set it was computed from — can be checked on it.
:func:`circuit_wsset` walks the circuit and returns the ws-set of its
paths, asserting Definition 4.1's structural constraints on the way.
"""

from __future__ import annotations

from repro.circuit.circuit import CONST, IE, PROD, SUM
from repro.circuit.recorder import CircuitRecorder
from repro.core.interned import InternedEngine
from repro.core.wsset import WSSet


def record(ws_set, world_table, config, budget=None):
    """The circuit the engine records for ``ws_set`` (the production ws-tree)."""
    engine = InternedEngine(world_table, config, budget)
    return CircuitRecorder(engine).record(engine.simplified(ws_set))


def circuit_wsset(circuit) -> WSSet:
    """The ws-set of ``circuit``'s paths; asserts Definition 4.1.

    * ``CONST`` 1.0 is the ∅ leaf (every world), 0.0 is ⊥ (no world);
    * ``IE`` denotes the union of its positive terms: the input descriptors
      are among them, and every other positive term is a conjunction of
      input descriptors;
    * ``PROD`` (⊗) denotes the union of its children, which must mention
      pairwise disjoint variables;
    * ``SUM`` (⊕) on variable ``x`` prefixes ``x=v`` to each certain value,
      each branch and each absent value (the absent values share
      ``absent_child``); its values must be distinct and no child may
      mention ``x``.
    """
    space = circuit.space
    shift = space.shift
    # node id -> (paths as dicts of packed ids by variable id, variable ids)
    denoted: dict[int, tuple[list[dict], frozenset]] = {}
    for index, node in enumerate(circuit.nodes):
        kind = node[0]
        if kind == CONST:
            assert node[1] in (0.0, 1.0), node
            denoted[index] = ([{}] if node[1] == 1.0 else [], frozenset())
        elif kind == IE:
            paths = [
                {packed >> shift: packed for packed in slots}
                for positive, slots in node[1]
                if positive
            ]
            variables = frozenset(v for path in paths for v in path)
            denoted[index] = (paths, variables)
        elif kind == PROD:
            paths, variables = [], frozenset()
            for child in node[1]:
                child_paths, child_variables = denoted[child]
                assert not variables & child_variables, "⊗ children share variables"
                paths += child_paths
                variables |= child_variables
            denoted[index] = (paths, variables)
        else:
            assert kind == SUM, node
            _, variable_id, certain, branches, absent_ids, absent_child = node
            alternatives = [(value_id, None) for value_id in certain]
            alternatives += list(branches)
            if absent_child is not None:
                alternatives += [(value_id, absent_child) for value_id in absent_ids]
            value_ids = [value_id for value_id, _ in alternatives]
            assert len(set(value_ids)) == len(value_ids), "⊕ values repeat"
            paths, variables = [], frozenset({variable_id})
            for value_id, child in alternatives:
                assignment = (variable_id << shift) | value_id
                if child is None:
                    paths.append({variable_id: assignment})
                    continue
                child_paths, child_variables = denoted[child]
                assert variable_id not in child_variables, "⊕ child mentions x"
                paths += [{variable_id: assignment, **path} for path in child_paths]
                variables |= child_variables
            denoted[index] = (paths, variables)
    paths, _ = denoted[circuit.root]
    return WSSet(
        dict(space.unpack(packed) for packed in path.values()) for path in paths
    )
