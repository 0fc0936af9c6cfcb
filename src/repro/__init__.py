"""repro — a reproduction of "Conditioning Probabilistic Databases" (Koch & Olteanu, VLDB 2008).

The library implements U-relational probabilistic databases, exact confidence
computation via world-set tree (ws-tree) decompositions, the database
conditioning operation ``assert[B]``, and the approximation baselines the
paper compares against, together with the workload generators and benchmark
harness that regenerate every table and figure of the paper's experimental
section.

Quickstart
----------
>>> from repro import ProbabilisticDatabase, FunctionalDependency
>>> db = ProbabilisticDatabase()
>>> db.world_table.add_variable("j", {1: 0.2, 7: 0.8})   # John's SSN
>>> db.world_table.add_variable("b", {4: 0.3, 7: 0.7})   # Bill's SSN
>>> r = db.create_relation("R", ("SSN", "NAME"))
>>> r.add({"j": 1}, (1, "John")); r.add({"j": 7}, (7, "John"))
>>> r.add({"b": 4}, (4, "Bill")); r.add({"b": 7}, (7, "Bill"))
>>> summary = db.assert_condition(FunctionalDependency("R", ["SSN"], ["NAME"]))
>>> round(summary.confidence, 2)        # P(SSN -> NAME) in the prior
0.44
"""

from repro.core.descriptors import WSDescriptor, EMPTY_DESCRIPTOR
from repro.core.wsset import WSSet
from repro.core.decompose import DecompositionStats
from repro.core.heuristics import make_heuristic, available_heuristics
from repro.core.probability import (
    ExactConfig,
    probability,
    probability_with_stats,
    confidence,
)
from repro.core.engine import EngineHandle, EngineStats
from repro.core.elimination import descriptor_elimination_probability, mutex_normal_form
from repro.core.conditioning import (
    condition_wsset,
    ConditioningResult,
    posterior_probability,
)
from repro.core.bruteforce import brute_force_probability

from repro.approx import (
    karp_luby_confidence,
    naive_monte_carlo_confidence,
    KarpLubyEstimator,
)

from repro.db.world_table import WorldTable
from repro.db.urelation import URelation, UTuple
from repro.db.database import ProbabilisticDatabase, ConditioningSummary
from repro.db.predicates import attr, col
from repro.db.constraints import (
    Constraint,
    FunctionalDependency,
    KeyConstraint,
    EqualityGeneratingDependency,
    DenialConstraint,
)
from repro.db.session import (
    Session,
    AsyncSession,
    ConfidenceRequest,
    ConfidenceResult,
    adaptive_hybrid_budget,
)
from repro.db.tuple_independent import tuple_independent_relation
from repro.db.api import ConfidenceAPI, connect

from repro.errors import (
    ReproError,
    ZeroProbabilityConditionError,
    InvalidDistributionError,
    UnknownVariableError,
    PartitionError,
    ShardUnavailableError,
)

__version__ = "1.0.0"

__all__ = [
    # core
    "WSDescriptor",
    "EMPTY_DESCRIPTOR",
    "WSSet",
    "DecompositionStats",
    "make_heuristic",
    "available_heuristics",
    "ExactConfig",
    "EngineHandle",
    "EngineStats",
    "probability",
    "probability_with_stats",
    "confidence",
    "descriptor_elimination_probability",
    "mutex_normal_form",
    "condition_wsset",
    "ConditioningResult",
    "posterior_probability",
    "brute_force_probability",
    # approximation
    "karp_luby_confidence",
    "naive_monte_carlo_confidence",
    "KarpLubyEstimator",
    # database layer
    "WorldTable",
    "URelation",
    "UTuple",
    "ProbabilisticDatabase",
    "ConditioningSummary",
    "attr",
    "col",
    "Constraint",
    "FunctionalDependency",
    "KeyConstraint",
    "EqualityGeneratingDependency",
    "DenialConstraint",
    "Session",
    "AsyncSession",
    "ConfidenceRequest",
    "ConfidenceResult",
    "adaptive_hybrid_budget",
    "tuple_independent_relation",
    # unified client API (local / single server / sharded cluster)
    "ConfidenceAPI",
    "connect",
    # errors
    "ReproError",
    "ZeroProbabilityConditionError",
    "InvalidDistributionError",
    "UnknownVariableError",
    "PartitionError",
    "ShardUnavailableError",
    "__version__",
]
