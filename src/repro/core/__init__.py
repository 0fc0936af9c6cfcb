"""Core algorithms of the paper.

This subpackage contains the paper's primary contribution: world-set
descriptors and ws-sets (Sections 2-3), the Davis-Putnam-style ws-tree
decomposition with its variable-choice heuristics (Section 4), run by the
interned engine fused with exact confidence computation (Section 4.3) and
recorded as a ws-tree by :mod:`repro.circuit`, ws-descriptor elimination
(Section 6), the conditioning algorithm (Section 5), and the brute-force
ground truth used for validation.
"""

from repro.core.descriptors import WSDescriptor, EMPTY_DESCRIPTOR
from repro.core.wsset import WSSet
from repro.core.heuristics import (
    Heuristic,
    MinLogHeuristic,
    MinMaxHeuristic,
    FirstVariableHeuristic,
    MostFrequentHeuristic,
    make_heuristic,
)
from repro.core.decompose import BoundedMemo, DecompositionStats
from repro.core.interned import InternedEngine, InternedSpace
from repro.core.probability import ExactConfig, probability, confidence
from repro.core.engine import EngineHandle, EngineStats
from repro.core.elimination import descriptor_elimination_probability
from repro.core.conditioning import condition_wsset, ConditioningResult
from repro.core.bruteforce import (
    brute_force_probability,
    enumerate_worlds,
    world_satisfies,
)

__all__ = [
    "WSDescriptor",
    "EMPTY_DESCRIPTOR",
    "WSSet",
    "Heuristic",
    "MinLogHeuristic",
    "MinMaxHeuristic",
    "FirstVariableHeuristic",
    "MostFrequentHeuristic",
    "make_heuristic",
    "BoundedMemo",
    "DecompositionStats",
    "InternedEngine",
    "InternedSpace",
    "ExactConfig",
    "EngineHandle",
    "EngineStats",
    "probability",
    "confidence",
    "descriptor_elimination_probability",
    "condition_wsset",
    "ConditioningResult",
    "brute_force_probability",
    "enumerate_worlds",
    "world_satisfies",
]
