"""Karp-Luby Monte-Carlo approximation of ws-set confidence (paper, Section 7).

The confidence of a ws-set is a weighted DNF-counting problem: each descriptor
is a clause, each possible world a model.  The Karp-Luby estimator samples

1. a descriptor ``d_j`` with probability proportional to its weight
   ``P(d_j)``, then
2. a world ``w`` from the conditional distribution ``P(· | d_j)`` (fix the
   assignments of ``d_j``, sample the remaining *relevant* variables
   independently from the world table),

and outputs ``Z · 1[j = min{k : w ⊨ d_k}]`` where ``Z = Σ_k P(d_k)``
(the "unbiased estimator" variant described in Vazirani's book, which the
paper uses because it converges faster than the original 1983 estimator).
Its expectation is exactly the confidence.  Dividing by ``Z`` gives a 0/1
variable, so the estimator can be driven by the optimal stopping rule of
Dagum, Karp, Luby and Ross exactly as in the paper's ``kl(ε)`` baseline.

Sampling substrate
------------------
The estimator runs on the **interned** representation of the world
table (:meth:`~repro.db.world_table.WorldTable.interned`): clauses are sorted
tuples of packed ``(variable_id << shift) | value_id`` ints, clause selection
walks a precomputed cumulative-weight array, worlds are ``variable_id ->
value_id`` maps sampled through per-variable cumulative arrays, and the
"is ``j`` the first covering clause" test is a scan over packed ints — no
string hashing, no per-draw distribution dict rebuilds.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from repro.approx.stopping import StoppingRuleResult, optimal_stopping_rule
from repro.core.wsset import WSSet
from repro.obs.trace import span as _span

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import Variable, WorldTable
else:
    Variable = object


@dataclass
class ApproximationResult:
    """An approximate confidence value together with the work performed."""

    estimate: float
    iterations: int
    epsilon: float | None = None
    delta: float | None = None
    method: str = "karp-luby"


#: ``method`` of every Karp-Luby result: the first-clause estimator.
_METHOD = "karp-luby[first-clause]"


class KarpLubyEstimator:
    """Reusable Karp-Luby estimator for one ws-set over one world table.

    Construction pre-computes the clause weights, the cumulative distribution
    used for clause sampling, and the packed clause tuples and per-variable
    cumulative weight arrays needed for the fast "is ``j`` the first covering
    clause" test.
    """

    def __init__(
        self,
        ws_set: WSSet,
        world_table: "WorldTable",
        *,
        seed: int | None = None,
    ) -> None:
        self.world_table = world_table
        self.rng = random.Random(seed)
        space = world_table.interned()
        self._space = space
        self._shift = space.shift
        self._value_mask = space.mask
        # A clause with an out-of-domain assignment holds in no world and
        # carries weight zero; interning drops it, so it is never sampled and
        # never covers.
        clauses = space.intern_wsset(ws_set)
        self._clauses: list[tuple] = clauses
        self.weights = self._clause_weights(clauses, space)
        # Relevant variables (dense ids, ascending = world-table order) and
        # their cumulative weight arrays for O(log r) value sampling.
        relevant = sorted({p >> self._shift for clause in clauses for p in clause})
        self._cumulative_by_id: dict[int, list[float]] = {
            variable_id: list(accumulate(space.weights[variable_id]))
            for variable_id in relevant
        }
        #: Variables relevant to the event; all others integrate out.
        self.variables = tuple(space.variables[i] for i in relevant)
        self._clause_count = len(clauses)
        self._trivially_true = any(not clause for clause in clauses)
        self.total_weight = float(sum(self.weights))
        self._cumulative_weights = list(accumulate(self.weights))

    @staticmethod
    def _clause_weights(clauses: list[tuple], space) -> list[float]:
        """``P(d)`` per packed clause: the product of its assignment weights."""
        shift = space.shift
        mask = space.mask
        weights = space.weights
        products = []
        for clause in clauses:
            product = 1.0
            for packed in clause:
                product *= weights[packed >> shift][packed & mask]
            products.append(product)
        return products

    # ------------------------------------------------------------------
    # Sampling primitives
    # ------------------------------------------------------------------
    def sample_once(self) -> float:
        """One draw of the estimator, already normalised to ``[0, 1]``.

        Multiply by :attr:`total_weight` to get the unnormalised Karp-Luby
        variable whose expectation is the confidence.
        """
        if not self._clause_count or self.total_weight == 0.0:
            return 0.0
        if self._trivially_true:
            return 1.0 / self.total_weight if self.total_weight else 0.0
        # Only the variables of the clauses before the sampled one can
        # influence the outcome, so sample them lazily: the expected cost per
        # iteration drops from O(#relevant variables) to O(earlier clause sizes).
        return 1.0 if self._is_first_covering(self._sample_clause()) else 0.0

    def estimate(self, iterations: int) -> ApproximationResult:
        """Average ``iterations`` draws of the (unnormalised) estimator."""
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if not self._clause_count:
            return ApproximationResult(0.0, 0, method=_METHOD)
        total = sum(self.sample_once() for _ in range(iterations))
        estimate = self.total_weight * total / iterations
        return ApproximationResult(estimate, iterations, method=_METHOD)

    def estimate_optimal(
        self,
        epsilon: float,
        delta: float,
        *,
        max_iterations: int | None = 2_000_000,
    ) -> ApproximationResult:
        """(ε, δ)-approximation driven by the optimal stopping rule (DKLR 2000).

        This is the configuration used by the paper's ``kl(ε)`` measurements:
        the stopping rule determines a sufficient number of iterations (within
        a constant factor from optimal) from the observed samples themselves.
        """
        if not self._clause_count or self.total_weight == 0.0:
            return ApproximationResult(0.0, 0, epsilon, delta, _METHOD)
        rule: StoppingRuleResult = optimal_stopping_rule(
            self.sample_once, epsilon, delta, max_iterations=max_iterations
        )
        return ApproximationResult(
            self.total_weight * rule.estimate,
            rule.iterations,
            epsilon,
            delta,
            _METHOD,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sample_clause(self) -> int:
        """One clause index, proportional to clause weight (cumulative walk)."""
        cumulative = self._cumulative_weights
        return bisect(
            cumulative,
            self.rng.random() * cumulative[-1],
            0,
            len(cumulative) - 1,
        )

    def _sample_value_id(self, variable_id: int) -> int:
        """Sample one value id of a variable through its cumulative weights."""
        cumulative = self._cumulative_by_id[variable_id]
        return bisect(
            cumulative,
            self.rng.random() * cumulative[-1],
            0,
            len(cumulative) - 1,
        )

    def _is_first_covering(self, clause_index: int) -> bool:
        """Sample a world from P(· | clause) lazily; is the clause the first covering one?"""
        shift = self._shift
        value_mask = self._value_mask
        clauses = self._clauses
        clause = clauses[clause_index]
        world = {p >> shift: p & value_mask for p in clause}
        sample = self._sample_value_id
        for index in range(clause_index):
            for p in clauses[index]:
                variable_id = p >> shift
                assigned = world.get(variable_id)
                if assigned is None:
                    assigned = sample(variable_id)
                    world[variable_id] = assigned
                if assigned != p & value_mask:
                    break
            else:
                return False
        return True


def karp_luby_confidence(
    ws_set: WSSet,
    world_table: "WorldTable",
    epsilon: float = 0.1,
    delta: float = 0.01,
    *,
    seed: int | None = None,
    max_iterations: int | None = 2_000_000,
) -> ApproximationResult:
    """One-shot (ε, δ)-approximate confidence of a ws-set.

    The number of iterations is decided by the Dagum-Karp-Luby-Ross stopping
    rule, as in the paper's ``kl(ε)`` baseline.  ``max_iterations`` caps its
    work (the observed sample mean is returned when the cap is hit),
    analogous to the wall-clock caps the paper places on its experiments.
    """
    if ws_set.contains_universal:
        return ApproximationResult(1.0, 0, epsilon, delta, "karp-luby")
    kl = KarpLubyEstimator(ws_set, world_table, seed=seed)
    with _span("karp_luby_rounds", epsilon=epsilon, delta=delta) as sp:
        result = kl.estimate_optimal(epsilon, delta, max_iterations=max_iterations)
        if sp.enabled:
            sp.set(iterations=result.iterations)
        return result
