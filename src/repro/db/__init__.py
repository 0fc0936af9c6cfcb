"""U-relational probabilistic database substrate.

This subpackage provides the representation layer of the paper: world tables
of independent finite-domain random variables (:mod:`repro.db.world_table`),
U-relations whose tuples carry world-set descriptors
(:mod:`repro.db.urelation`), positive relational algebra over them
(:mod:`repro.db.algebra`), the database facade with confidence computation and
conditioning (:mod:`repro.db.database`), and the constraint compiler that
turns functional dependencies and friends into conditions
(:mod:`repro.db.constraints`).
"""

from repro.db.world_table import WorldTable
from repro.db.urelation import URelation, UTuple
from repro.db.database import ProbabilisticDatabase, ConditioningSummary
from repro.db.predicates import (
    AttributeComparison,
    And,
    Or,
    Not,
    TruePredicate,
    attr,
    col,
)
from repro.db.constraints import (
    Constraint,
    FunctionalDependency,
    KeyConstraint,
    EqualityGeneratingDependency,
    DenialConstraint,
)
from repro.db.confidence import ConfidenceRow
from repro.db.session import (
    AsyncSession,
    ConfidenceRequest,
    ConfidenceResult,
    Session,
)
from repro.db.tuple_independent import tuple_independent_relation

__all__ = [
    "WorldTable",
    "URelation",
    "UTuple",
    "ProbabilisticDatabase",
    "ConditioningSummary",
    "AttributeComparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "attr",
    "col",
    "Constraint",
    "FunctionalDependency",
    "KeyConstraint",
    "EqualityGeneratingDependency",
    "DenialConstraint",
    "ConfidenceRow",
    "Session",
    "AsyncSession",
    "ConfidenceRequest",
    "ConfidenceResult",
    "tuple_independent_relation",
]
