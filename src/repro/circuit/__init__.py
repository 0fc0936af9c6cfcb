"""Lineage circuits: compile a decomposition once, re-evaluate it many times.

The compile-once / evaluate-many layer over the interned engine:
:class:`~repro.circuit.recorder.CircuitRecorder` runs the engine's own
decomposition walk with a fold that emits nodes instead of values, and the
result is a :class:`~repro.circuit.circuit.Circuit` — a DAG of ⊗ / ⊕ /
inclusion-exclusion nodes over packed weight slots — which then answers
re-weighted evaluations, what-if sweeps and gradients without decomposing
again.  Sessions expose this as :meth:`~repro.db.session.Session.compile`
and :meth:`~repro.db.session.Session.what_if`; the confidence server as the
``what_if`` protocol op.
"""

from repro.circuit.circuit import Circuit
from repro.circuit.recorder import CircuitRecorder

__all__ = ["Circuit", "CircuitRecorder"]
