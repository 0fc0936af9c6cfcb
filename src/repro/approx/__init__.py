"""Approximate confidence computation baselines (paper, Section 7).

The paper compares its exact algorithms against Monte-Carlo approximation:
the Karp-Luby FPRAS for DNF counting adapted to ws-set confidence
(:mod:`repro.approx.karp_luby`), driven by the optimal-stopping algorithm of
Dagum, Karp, Luby and Ross (:mod:`repro.approx.stopping`).  A naive
Monte-Carlo estimator (:mod:`repro.approx.montecarlo`) is included as a
further baseline.
"""

from repro.approx.karp_luby import (
    KarpLubyEstimator,
    karp_luby_confidence,
    ApproximationResult,
)
from repro.approx.montecarlo import naive_monte_carlo_confidence
from repro.approx.stopping import optimal_stopping_rule, StoppingRuleResult

__all__ = [
    "KarpLubyEstimator",
    "karp_luby_confidence",
    "ApproximationResult",
    "naive_monte_carlo_confidence",
    "optimal_stopping_rule",
    "StoppingRuleResult",
]
