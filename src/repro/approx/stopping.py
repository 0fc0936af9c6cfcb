"""Iteration counts for Monte-Carlo confidence estimation.

* Karp-Luby runs until the stopping rule of Dagum, Karp, Luby and Ross says
  enough samples were seen: the number of iterations follows from the
  samples themselves and is within a constant factor of optimal.  The paper
  uses this to drive its ``kl(ε)`` baseline.
* The naive Monte-Carlo baseline runs a fixed Chernoff-style count for an
  *additive* (ε, δ)-approximation.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

#: ``e - 2``, the constant of the Dagum-Karp-Luby-Ross bounds.
_E_MINUS_2 = math.e - 2.0


@dataclass
class StoppingRuleResult:
    """Outcome of the optimal stopping rule: the estimate and the work done."""

    estimate: float
    iterations: int
    epsilon: float
    delta: float


def optimal_stopping_rule(
    sample: Callable[[], float],
    epsilon: float,
    delta: float,
    *,
    max_iterations: int | None = None,
) -> StoppingRuleResult:
    """The stopping-rule algorithm of Dagum, Karp, Luby and Ross (2000).

    ``sample()`` must return independent, identically distributed values in
    ``[0, 1]`` with (unknown) mean ``μ > 0``.  The rule runs until the running
    sum reaches ``Υ₁ = 1 + (1 + ε) · 4 (e − 2) ln(2/δ) / ε²`` and returns
    ``Υ₁ / N`` where ``N`` is the number of samples consumed, which is an
    (ε, δ)-approximation of ``μ`` using an expected number of samples within a
    constant factor of optimal.

    ``max_iterations`` optionally caps the work (useful when ``μ`` may be
    zero, e.g. an unsatisfiable condition); when the cap is hit the plain
    sample mean observed so far is returned instead.
    """
    _check_parameters(epsilon, delta)
    upsilon = 4.0 * _E_MINUS_2 * math.log(2.0 / delta) / (epsilon * epsilon)
    threshold = 1.0 + (1.0 + epsilon) * upsilon

    total = 0.0
    iterations = 0
    while total < threshold:
        if max_iterations is not None and iterations >= max_iterations:
            mean = total / iterations if iterations else 0.0
            return StoppingRuleResult(mean, iterations, epsilon, delta)
        value = sample()
        if value < 0.0 or value > 1.0:
            raise ValueError(
                f"stopping rule requires samples in [0, 1], got {value}"
            )
        total += value
        iterations += 1
    return StoppingRuleResult(threshold / iterations, iterations, epsilon, delta)


def zero_one_estimator_iterations(epsilon: float, delta: float) -> int:
    """Chernoff-style iteration count for estimating the mean of a 0/1 variable.

    ``⌈3 ln(2/δ) / ε²⌉`` iterations suffice for an *additive* ε-approximation
    with probability ``1 − δ``; used by the naive Monte-Carlo baseline.
    """
    _check_parameters(epsilon, delta)
    return math.ceil(3.0 * math.log(2.0 / delta) / (epsilon * epsilon))


def _check_parameters(epsilon: float, delta: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
