"""Lineage circuits: the compiled, re-evaluatable form of one decomposition.

A :class:`Circuit` is the arithmetic-circuit trace of one run of the interned
engine's decomposition (Figure 7): a DAG of

* ``PROD`` (⊗) nodes — independent partitioning, ``P = 1 − Π_i (1 − P_i)``;
* ``SUM``  (⊕) nodes — variable elimination,
  ``P = Σ_certain w_i + Σ_branches w_i · P_i + w_absent · P_T``;
* ``IE`` nodes — the inclusion-exclusion closed form over at most
  :data:`~repro.core.interned._CLOSED_FORM_LIMIT` descriptors;
* ``CONST`` leaves — the ∅ (``1.0``) and ⊥ (``0.0``) cases,

whose leaves reference *weight slots* (packed ``(variable_id << shift) |
value_id`` assignments of the circuit's :class:`~repro.core.interned.
InternedSpace`) instead of literal probabilities.  Because the engine's
variable-selection heuristics depend only on occurrence counts and domain
sizes — never on the weights — the recorded structure is valid under **any**
re-weighting of the same variables over the same domains.  That is the
d-DNNF-style compile-once / evaluate-many discipline: decompose once, then
answer "what if this tuple's probability were p?" sweeps and per-variable
sensitivities in microseconds.

Evaluation replicates the engine's accumulation orders exactly (certain
weights first in ascending value-id order, branch children next in ascending
order, the shared ``T`` branch last, its coefficient the sequential sum of
the absent values' weights in ascending value-id order), so
:meth:`Circuit.evaluate` on the recording weights is **bit-identical** to the
uncompiled engine — asserted by the test suite and the benchmark, not merely
within tolerance.

The other entry points:

* :meth:`Circuit.evaluate` with ``overrides`` — full probability under
  replaced per-variable distributions, without re-decomposition;
* :meth:`Circuit.evaluate_sweep` — one variable's alternative swept over a
  grid of probabilities (the other alternatives rescaled proportionally),
  vectorised over the grid with numpy when available, bit-identical to the
  point-by-point fallback;
* :meth:`Circuit.gradient` — reverse-mode ``∂P/∂w`` for every weight slot the
  circuit touches, one backward pass;
* :meth:`Circuit.sensitivity` — ``dP/dp`` under the sweep's
  reparameterisation (the scalar derivative a what-if user wants).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.interned import inclusion_exclusion_value
from repro.db.world_table import PROBABILITY_TOLERANCE
from repro.errors import (
    InvalidDistributionError,
    UnknownValueError,
    UnknownVariableError,
)
from repro.obs.trace import span as _span

try:  # numpy only vectorises evaluate_sweep's grid; it is optional
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image always has numpy
    _np = None

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Mapping, Sequence

    from repro.core.interned import InternedSpace, PackedDescriptor
    from repro.db.world_table import Value, Variable

#: Node kinds (first element of every node tuple).
CONST = 0  # (CONST, value)
IE = 1  # (IE, terms) with terms = ((positive, packed_slots), ...)
SUM = 2  # (SUM, var_id, certain, branches, absent_ids, absent_child)
PROD = 3  # (PROD, children)
# A SUM node eliminates variable ``var_id``.  ``certain`` holds the value ids
# some descriptor assigns alone (their branch is ∅, probability one);
# ``branches`` pairs each other mentioned value id with its child node;
# ``absent_ids`` are the value ids no descriptor mentions, and
# ``absent_child`` the ``T`` node they share (``None`` when ``T`` is empty or
# no value is absent).  Every id list ascends, zero-weight values included.


def _absent_fold(weights_row, absent_ids) -> float:
    """The shared ``T`` branch's coefficient, summed in the engine's order."""
    total = 0.0
    for value_id in absent_ids:
        total += weights_row[value_id]
    return total


class Circuit:
    """One recorded decomposition, re-evaluatable under new weights.

    Instances are produced by
    :class:`~repro.circuit.recorder.CircuitRecorder` (via
    :meth:`~repro.core.engine.EngineHandle.compile` /
    :meth:`~repro.db.session.Session.compile`); the constructor only wires the
    recorded pieces together.  ``nodes`` is in topological order (children
    before parents, the root last among its cone), so evaluation is a single
    forward pass and the gradient a single backward pass.
    """

    __slots__ = ("space", "nodes", "root", "source", "variable_ids")

    def __init__(
        self,
        space: "InternedSpace",
        nodes: list[tuple],
        root: int,
        source: "tuple[PackedDescriptor, ...]",
        variable_ids: frozenset[int],
    ) -> None:
        self.space = space
        self.nodes = nodes
        self.root = root
        #: The simplified interned ws-set this circuit was recorded from, in
        #: entry order (dedup + subsumption already applied).
        self.source = source
        #: Dense ids of every variable the circuit reads a weight of.
        self.variable_ids = variable_ids

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def variables(self) -> "frozenset[Variable]":
        """The (external) variables whose weights this circuit reads."""
        return frozenset(self.space.variables[vid] for vid in self.variable_ids)

    def __repr__(self) -> str:
        return (
            f"Circuit({len(self.nodes)} nodes, {len(self.source)} descriptors, "
            f"{len(self.variable_ids)} variables)"
        )

    # ------------------------------------------------------------------
    # Weight rows
    # ------------------------------------------------------------------
    def _rows(self, overrides: "Mapping[Variable, Mapping[Value, float]] | None"):
        """Per-variable weight rows: the space's, with validated replacements.

        Overrides are complete distributions over the variable's *recorded*
        domain — same value set, probabilities summing to one within the
        world-table tolerance — so an override row is exactly the row a
        rebuilt world table would intern.
        """
        space = self.space
        rows = space.weights
        if not overrides:
            return rows
        rows = list(rows)
        for variable, distribution in overrides.items():
            variable_id = space.variable_ids.get(variable)
            if variable_id is None:
                raise UnknownVariableError(variable)
            rows[variable_id] = self._validated_row(variable_id, distribution)
        return rows

    def _validated_row(self, variable_id: int, distribution) -> list[float]:
        space = self.space
        value_ids = space.value_ids[variable_id]
        domain = space.values[variable_id]
        row = [0.0] * len(domain)
        seen = 0
        total = 0.0
        for value, probability in distribution.items():
            value_id = value_ids.get(value)
            if value_id is None:
                raise UnknownValueError(space.variables[variable_id], value)
            probability = float(probability)
            if probability < 0.0:
                raise InvalidDistributionError(
                    f"negative probability {probability} for "
                    f"{space.variables[variable_id]!r} -> {value!r}"
                )
            row[value_id] = probability
            total += probability
            seen += 1
        if seen != len(domain):
            raise InvalidDistributionError(
                f"override for variable {space.variables[variable_id]!r} must "
                f"cover its full domain ({len(domain)} alternatives, got {seen})"
            )
        if abs(total - 1.0) > PROBABILITY_TOLERANCE * max(1, len(domain)):
            raise InvalidDistributionError(
                f"override alternatives of variable "
                f"{space.variables[variable_id]!r} sum to {total}, expected 1"
            )
        return row

    # ------------------------------------------------------------------
    # Scalar evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        overrides: "Mapping[Variable, Mapping[Value, float]] | None" = None,
    ) -> float:
        """The circuit's probability, optionally under replaced distributions.

        Without ``overrides`` this is bit-identical to the engine evaluation
        the circuit was recorded from; with them it equals (to the last bit,
        in practice) a fresh decomposition over a world table carrying the
        overridden distributions — without paying for that decomposition.
        """
        return self._forward(self._rows(overrides))[self.root]

    def _forward(self, rows) -> list[float]:
        """One topological evaluation pass; returns the per-node values."""
        shift = self.space.shift
        mask = self.space.mask
        values: list[float] = [0.0] * len(self.nodes)
        for index, node in enumerate(self.nodes):
            kind = node[0]
            if kind == SUM:
                _, var_id, certain, branches, absent_ids, absent_child = node
                row = rows[var_id]
                acc = 0.0
                for value_id in certain:
                    acc += row[value_id]
                for value_id, child in branches:
                    acc += row[value_id] * values[child]
                if absent_child is not None:
                    acc += _absent_fold(row, absent_ids) * values[absent_child]
                values[index] = acc
            elif kind == IE:
                values[index] = inclusion_exclusion_value(node[1], rows, shift, mask)
            elif kind == PROD:
                complement = 1.0
                for child in node[1]:
                    complement *= 1.0 - values[child]
                values[index] = 1.0 - complement
            else:  # CONST
                values[index] = node[1]
        return values

    # ------------------------------------------------------------------
    # What-if sweeps
    # ------------------------------------------------------------------
    def _sweep_target(self, variable, value) -> tuple[int, int]:
        space = self.space
        variable_id = space.variable_ids.get(variable)
        if variable_id is None:
            raise UnknownVariableError(variable)
        domain = space.values[variable_id]
        if len(domain) < 2:
            raise InvalidDistributionError(
                f"cannot sweep variable {variable!r}: its domain has a single "
                f"alternative, whose probability is fixed at 1"
            )
        if value is None:
            # Boolean variables built via add_boolean list True first, so the
            # default sweeps "the tuple is present"; general variables default
            # to their first alternative.
            value = domain[0]
        value_id = space.value_ids[variable_id].get(value)
        if value_id is None:
            raise UnknownValueError(variable, value)
        return variable_id, value_id

    def _sweep_row(self, variable_id: int, value_id: int, p: float) -> list[float]:
        """The variable's distribution with ``value_id`` forced to ``p``.

        The remaining alternatives share the leftover mass ``1 − p`` in
        proportion to their baseline weights; when the swept alternative held
        *all* the baseline mass the leftover is spread uniformly (there is no
        proportion to preserve).
        """
        baseline = self.space.weights[variable_id]
        p0 = baseline[value_id]
        rest = 1.0 - p0
        row = [0.0] * len(baseline)
        if rest > 0.0:
            scale = (1.0 - p) / rest
            for index, weight in enumerate(baseline):
                row[index] = weight * scale
        else:
            share = (1.0 - p) / (len(baseline) - 1)
            for index in range(len(baseline)):
                row[index] = share
        row[value_id] = p
        return row

    def evaluate_sweep(
        self,
        variable: "Variable",
        ps: "Sequence[float]",
        *,
        value: "Value | None" = None,
    ) -> list[float]:
        """The circuit's probability at each point of a what-if sweep.

        Point ``i`` answers "what if ``P({variable -> value}) = ps[i]``?",
        with the variable's other alternatives rescaled proportionally to
        keep the distribution normalised.  ``value`` defaults to the
        variable's first alternative (``True`` for ``add_boolean`` variables).
        With numpy available all points are evaluated in one forward pass
        whose swept-variable weights are arrays: node values are scalars
        until they depend on the swept variable and arrays of ``len(ps)``
        afterwards, broadcasting turns every ``+=`` / ``*=`` elementwise, so
        a thousand-point sweep is a handful of vector operations per node.
        The fallback evaluates point-by-point in the same accumulation order,
        so both return the same values bit for bit.
        """
        variable_id, value_id = self._sweep_target(variable, value)
        points = [float(p) for p in ps]
        if not points:
            return []
        for p in points:
            if not 0.0 <= p <= 1.0:
                raise InvalidDistributionError(
                    f"sweep probabilities must lie in [0, 1], got {p}"
                )
        with _span("circuit_sweep", points=len(points), nodes=len(self.nodes)):
            rows = list(self.space.weights)
            if _np is None:
                results = []
                for p in points:
                    rows[variable_id] = self._sweep_row(variable_id, value_id, p)
                    results.append(self._forward(rows)[self.root])
                return results
            rows[variable_id] = self._sweep_columns(variable_id, value_id, points)
            root = _np.asarray(self._forward(rows)[self.root], dtype=_np.float64)
            # A 0-d root: the swept variable never fed the root's cone.
            return [float(entry) for entry in _np.broadcast_to(root, len(points))]

    def _sweep_columns(self, variable_id: int, value_id: int, points):
        """Per-value-id weight arrays of the swept variable (numpy path)."""
        baseline = self.space.weights[variable_id]
        ps = _np.asarray(points, dtype=_np.float64)
        p0 = baseline[value_id]
        rest = 1.0 - p0
        if rest > 0.0:
            scale = (1.0 - ps) / rest
            columns = [weight * scale for weight in baseline]
        else:
            share = (1.0 - ps) / (len(baseline) - 1)
            columns = [share for _ in baseline]
        columns[value_id] = ps
        return columns

    # ------------------------------------------------------------------
    # Gradients / sensitivities
    # ------------------------------------------------------------------
    def gradient(
        self,
        overrides: "Mapping[Variable, Mapping[Value, float]] | None" = None,
    ) -> "dict[tuple[Variable, Value], float]":
        """``∂P/∂w`` for every weight slot the circuit reads, one backward pass.

        The partials treat the slots as free parameters (no normalisation
        constraint between a variable's alternatives — use
        :meth:`sensitivity` for the constrained scalar derivative).  Slots the
        circuit never touches have derivative zero and are omitted.
        """
        rows = self._rows(overrides)
        values = self._forward(rows)
        shift = self.space.shift
        mask = self.space.mask
        adjoints = [0.0] * len(self.nodes)
        adjoints[self.root] = 1.0
        gradient: dict[int, float] = {}
        for index in range(len(self.nodes) - 1, -1, -1):
            adjoint = adjoints[index]
            if adjoint == 0.0:
                continue
            node = self.nodes[index]
            kind = node[0]
            if kind == SUM:
                _, var_id, certain, branches, absent_ids, absent_child = node
                row = rows[var_id]
                base = var_id << shift
                for value_id in certain:
                    slot = base | value_id
                    gradient[slot] = gradient.get(slot, 0.0) + adjoint
                for value_id, child in branches:
                    slot = base | value_id
                    gradient[slot] = gradient.get(slot, 0.0) + adjoint * values[child]
                    adjoints[child] += adjoint * row[value_id]
                if absent_child is not None:
                    child_value = values[absent_child]
                    coefficient = 0.0
                    for value_id in absent_ids:
                        slot = base | value_id
                        gradient[slot] = (
                            gradient.get(slot, 0.0) + adjoint * child_value
                        )
                        coefficient += row[value_id]
                    adjoints[absent_child] += adjoint * coefficient
            elif kind == IE:
                for positive, slots in node[1]:
                    sign = adjoint if positive else -adjoint
                    count = len(slots)
                    # ∂(Π w_i)/∂w_j = Π_{i≠j} w_i via prefix/suffix products
                    # (no division, so zero weights are safe).
                    prefix = [1.0] * (count + 1)
                    for position, packed in enumerate(slots):
                        prefix[position + 1] = (
                            prefix[position] * rows[packed >> shift][packed & mask]
                        )
                    suffix = 1.0
                    for position in range(count - 1, -1, -1):
                        packed = slots[position]
                        gradient[packed] = (
                            gradient.get(packed, 0.0)
                            + sign * prefix[position] * suffix
                        )
                        suffix *= rows[packed >> shift][packed & mask]
            elif kind == PROD:
                children = node[1]
                count = len(children)
                prefix = [1.0] * (count + 1)
                for position, child in enumerate(children):
                    prefix[position + 1] = prefix[position] * (1.0 - values[child])
                suffix = 1.0
                for position in range(count - 1, -1, -1):
                    child = children[position]
                    adjoints[child] += adjoint * prefix[position] * suffix
                    suffix *= 1.0 - values[child]
            # CONST: nothing flows further.
        space = self.space
        return {
            space.unpack(slot): value for slot, value in gradient.items()
        }

    def sensitivity(
        self,
        variable: "Variable",
        *,
        value: "Value | None" = None,
    ) -> float:
        """``dP/dp`` at the baseline, under the sweep's reparameterisation.

        This is the derivative of :meth:`evaluate_sweep`'s curve at the
        variable's current probability: the swept alternative moves by
        ``dp``, the other alternatives absorb ``−dp`` in proportion to their
        baseline weights.  Computed exactly from :meth:`gradient` by the
        chain rule, not by finite differences.
        """
        variable_id, value_id = self._sweep_target(variable, value)
        space = self.space
        baseline = space.weights[variable_id]
        p0 = baseline[value_id]
        rest = 1.0 - p0
        gradient = self.gradient()
        variable_obj = space.variables[variable_id]
        domain = space.values[variable_id]
        total = gradient.get((variable_obj, domain[value_id]), 0.0)
        for index, weight in enumerate(baseline):
            if index == value_id:
                continue
            partial = gradient.get((variable_obj, domain[index]), 0.0)
            if rest > 0.0:
                total -= partial * (weight / rest)
            else:
                total -= partial / (len(baseline) - 1)
        return total
