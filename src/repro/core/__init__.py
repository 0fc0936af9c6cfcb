"""Core algorithms of the paper.

This subpackage contains the paper's primary contribution: world-set
descriptors and ws-sets (Sections 2-3), ws-trees and their Davis-Putnam-style
construction with the minlog/minmax heuristics (Section 4), exact confidence
computation (Section 4.3), ws-descriptor elimination (Section 6), the
conditioning algorithm (Section 5), and the brute-force ground truth used for
validation.
"""

from repro.core.descriptors import WSDescriptor, EMPTY_DESCRIPTOR
from repro.core.wsset import WSSet
from repro.core.wstree import (
    WSTree,
    IndependentNode,
    VariableNode,
    LeafNode,
    BottomNode,
)
from repro.core.heuristics import (
    Heuristic,
    MinLogHeuristic,
    MinMaxHeuristic,
    FirstVariableHeuristic,
    MostFrequentHeuristic,
    RandomHeuristic,
    make_heuristic,
)
from repro.core.decompose import compute_tree, BoundedMemo, DecompositionStats
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
    "WSTree",
    "IndependentNode",
    "VariableNode",
    "LeafNode",
    "BottomNode",
    "Heuristic",
    "MinLogHeuristic",
    "MinMaxHeuristic",
    "FirstVariableHeuristic",
    "MostFrequentHeuristic",
    "RandomHeuristic",
    "make_heuristic",
    "compute_tree",
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
