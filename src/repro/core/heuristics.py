"""Variable-choice heuristics for the Davis-Putnam-style decomposition (paper, Section 4.2).

When the decomposition of a ws-set has to fall back to variable elimination,
the choice of variable greatly influences the size of the resulting ws-tree
(the classic variable-ordering problem of BDDs).  The paper proposes two
heuristics and benchmarks them against each other in Figure 13:

* **minlog** (Figure 6): choose the variable minimising
  ``log2(Σ_i 2^{s_i})`` where ``s_i = |S_{x→i} ∪ T|`` is the size of the
  sub-problem created for alternative ``i`` (``T`` being the descriptors not
  mentioning ``x``).  The estimate is accumulated in log-space exactly as in
  Figure 6 to avoid huge intermediate numbers.
* **minmax**: choose the variable minimising ``max_i |S_{x→i} ∪ T|`` — cheaper
  to evaluate but blind to the number of large branches (Remark 4.6 gives a
  scenario where it is suboptimal).

The default is **frequency**, the Davis-Putnam max-occurrence rule: over
seeds of the Figure 11a/12 shapes and of Figure 13's from 200 descriptors
up it expands 20–42% fewer frames than minlog (about 4% fewer at r ≥ 3;
not on every instance, see the README), and a candidate's score is a plain
sum.  **first** is an ablation baseline.  Every strategy is a pure
function of the occurrence counts and domain sizes, so
the same ws-set always eliminates the same variable — which is what lets a
recorded circuit evaluate bit-identically to the run it records.

The engine chooses through :meth:`Heuristic.select_packed` from packed
counts; :meth:`Heuristic.select_variable` is the dict API (also the Figure 8
oracle's), and frequency sums the packed counts per variable instead.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import Value, Variable, WorldTable
else:
    Variable = object
    Value = object

#: Per-variable occurrence statistics gathered in one pass over the ws-set:
#: ``occurrences[x][i]`` is the number of descriptors containing ``x -> i``.
OccurrenceCounts = Mapping[Variable, Mapping[Value, int]]


class Heuristic:
    """Base class: scores candidate variables and picks the minimum-score one."""

    #: Human-readable name used by :func:`make_heuristic` and benchmark reports.
    name = "abstract"

    def estimate(
        self,
        variable: Variable,
        value_counts: Mapping[Value, int],
        t_size: int,
        domain_size: int,
    ) -> float:
        """Score for eliminating ``variable``; lower is better.

        Parameters
        ----------
        variable:
            The candidate variable.
        value_counts:
            ``value -> number of descriptors containing variable -> value``
            (only values that actually occur are present).
        t_size:
            Number of descriptors *not* mentioning the variable (the ``T`` set
            of Figure 4, which is copied into every branch).
        domain_size:
            Size of the variable's domain in the world table.
        """
        raise NotImplementedError

    def select_variable(
        self,
        occurrences: OccurrenceCounts,
        descriptor_count: int,
        world_table: "WorldTable",
    ) -> Variable:
        """Pick the variable with the smallest estimate (ties: first seen).

        ``world_table`` may be any *domain-size provider* — an object with a
        ``domain_size(variable)`` method for the variables keyed in
        ``occurrences``.  The interned engine passes its
        :class:`~repro.core.interned.InternedSpace` (variables are dense
        integer ids); the test suite's dict-based Figure 8 oracle passes the
        :class:`~repro.db.world_table.WorldTable` itself (variables are their
        original names).  Heuristics therefore must not assume anything about
        the variable objects beyond hashability.
        """
        best_variable = None
        best_score = math.inf
        estimate = self.estimate
        domain_size = world_table.domain_size
        for variable, value_counts in occurrences.items():
            t_size = descriptor_count - sum(value_counts.values())
            score = estimate(variable, value_counts, t_size, domain_size(variable))
            if score < best_score:
                best_score = score
                best_variable = variable
        if best_variable is None:  # pragma: no cover - callers never pass empty stats
            raise ValueError("cannot select a variable from an empty ws-set")
        return best_variable

    def select_packed(self, counts, descriptor_count: int, space) -> int:
        """:meth:`select_variable` over ``counts``, ``packed -> occurrences``.

        ``space`` has ``shift``, ``mask`` and ``domain_size``.  The counts are
        grouped per variable id in first-seen order and a lone candidate is
        returned at once, so a heuristic that defines only :meth:`estimate`
        chooses as through :meth:`select_variable`.
        """
        shift, mask = space.shift, space.mask
        occurrences: dict[int, dict[int, int]] = {}
        for packed, count in counts.items():
            occurrences.setdefault(packed >> shift, {})[packed & mask] = count
        if len(occurrences) == 1:
            return next(iter(occurrences))
        return self.select_variable(occurrences, descriptor_count, space)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


#: ``1 / ln 2``: turns the natural logarithm into the ``log2`` of Figure 6.
_INVERSE_LOG_2 = 1.0 / math.log(2.0)


class MinLogHeuristic(Heuristic):
    """The minlog heuristic of Figure 6 (log-space cost estimate, base 2)."""

    name = "minlog"

    def estimate(
        self,
        variable: Variable,
        value_counts: Mapping[Value, int],
        t_size: int,
        domain_size: int,
    ) -> float:
        log = math.log
        inverse_log_2 = _INVERSE_LOG_2
        counts = value_counts.values()
        missing_assignment = len(value_counts) < domain_size or 0 in counts
        estimate = float(t_size) if missing_assignment else 0.0
        # Branch sizes s_i = |S_{x->i} ∪ T| for the values that occur in S.
        for count in counts:
            if count <= 0:
                continue
            # e := e + log2(1 + 2^(size - e)), i.e. log-sum-exp accumulation.
            exponent = count + t_size - estimate
            if exponent > 60:
                # Past 2**53 the 1 is lost to rounding, so log2(1 + 2**exponent)
                # is the exponent itself; the cutoff also keeps 2**exponent
                # from overflowing.
                estimate += exponent
            else:
                estimate += log(1.0 + 2.0**exponent) * inverse_log_2
        return estimate


class MinMaxHeuristic(Heuristic):
    """The minmax heuristic: minimise the largest branch ``|S_{x→i} ∪ T|``."""

    name = "minmax"

    def estimate(
        self,
        variable: Variable,
        value_counts: Mapping[Value, int],
        t_size: int,
        domain_size: int,
    ) -> float:
        sizes = [count + t_size for count in value_counts.values() if count > 0]
        missing_assignment = len(value_counts) < domain_size or any(
            count == 0 for count in value_counts.values()
        )
        if missing_assignment:
            sizes.append(t_size)
        return float(max(sizes)) if sizes else 0.0


class FirstVariableHeuristic(Heuristic):
    """Ablation baseline: take the first candidate variable, ignoring statistics."""

    name = "first"

    def estimate(self, variable, value_counts, t_size, domain_size) -> float:
        return 0.0


class MostFrequentHeuristic(Heuristic):
    """The default: eliminate the variable occurring in most descriptors.

    This is the classic "max-occurrence" Davis-Putnam branching rule.  It
    keeps ``T``, the descriptors copied into every branch, smallest; on the
    paper's hard families that saves more frames than minlog's size
    estimate, though it ignores how the occurrences split across values.
    """

    name = "frequency"

    def estimate(self, variable, value_counts, t_size, domain_size) -> float:
        return -float(sum(value_counts.values()))

    def select_packed(self, counts, descriptor_count, space):
        # Totals per variable; ``max`` keeps the first maximum, as ``<`` does.
        shift = space.shift
        totals: dict[int, int] = {}
        for packed, count in counts.items():
            totals[packed >> shift] = totals.get(packed >> shift, 0) + count
        return max(totals, key=totals.__getitem__)


_HEURISTICS = {
    "minlog": MinLogHeuristic,
    "minmax": MinMaxHeuristic,
    "first": FirstVariableHeuristic,
    "frequency": MostFrequentHeuristic,
}


def make_heuristic(name: "str | Heuristic") -> Heuristic:
    """Create a heuristic by name (``minlog``, ``minmax``, ``first``, ``frequency``).

    Passing an existing :class:`Heuristic` instance returns it unchanged, so
    API entry points can accept either form.
    """
    if isinstance(name, Heuristic):
        return name
    try:
        factory = _HEURISTICS[name]
    except KeyError:
        known = ", ".join(sorted(_HEURISTICS))
        raise ValueError(f"unknown heuristic {name!r}; known heuristics: {known}") from None
    return factory()


def available_heuristics() -> tuple[str, ...]:
    """Names accepted by :func:`make_heuristic`."""
    return tuple(sorted(_HEURISTICS))


def component_dispatch_cost(component, space) -> int:
    """Evaluation-cost estimate of an interned ⊗-component, for dispatch order.

    The decomposition's work grows with how many descriptors the component
    holds and with how many branches each eliminated variable fans out into,
    so the estimate is *descriptor count × summed domain size* over the
    component's distinct variables — a deterministic integer computed from
    packed assignments alone.  ``space`` is anything with ``shift`` and
    ``domain_size(variable_id)`` (an
    :class:`~repro.core.interned.InternedSpace` or a
    :class:`~repro.core.procpool.SpaceSnapshot`).  Used by
    :func:`~repro.core.procpool.chunk_components` to feed largest-first
    chunks to the process pool so stragglers stop serialising it.
    """
    shift = space.shift
    variable_ids = {p >> shift for descriptor in component for p in descriptor}
    domains = sum(space.domain_size(variable_id) for variable_id in variable_ids)
    return len(component) * max(1, domains)

