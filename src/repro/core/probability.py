"""Exact confidence computation (paper, Section 4.3, Figure 7).

The probability of a ws-set is computed by the same recursion as ComputeTree
(Figure 4) with the node constructors replaced by the probability equations of
Figure 7 — the composition ``ComputeTree ∘ P`` described in the paper, which
never materialises the ws-tree:

* ⊗-node (independent partitioning):  ``P = 1 − Π_i (1 − P(S_i))``
* ⊕-node (variable elimination):      ``P = Σ_i P({x → i}) · P(S_{x→i} ∪ T)``
* ∅ leaf: ``P = 1``;   ⊥ leaf: ``P = 0``

Two algorithm variants of the experimental section are obtained through
:class:`ExactConfig`:

* **INDVE** — independent partitioning + variable elimination (the default);
* **VE** — variable elimination only.

plus the heuristic choice (the default ``frequency``, the paper's ``minlog`` /
``minmax``, ``first``) and the engineering knobs evaluated in the ablation
benchmarks: subsumption simplification and memoisation of repeated sub-ws-sets.

The recursion itself is the integer-packed iterative engine of
:mod:`repro.core.interned`: variables and values are interned into dense ids,
descriptors become sorted tuples of packed ints, the recursion runs on an
explicit stack, and sub-ws-set memoisation (component caching) is on by
default because canonical keys are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.decompose import DecompositionStats
from repro.core.heuristics import Heuristic, make_heuristic
from repro.core.interned import InternedEngine
from repro.core.wsset import WSSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import WorldTable


@dataclass(frozen=True)
class ExactConfig:
    """Configuration of the exact confidence-computation engine.

    Attributes
    ----------
    use_independent_partitioning:
        ``True`` gives INDVE, ``False`` gives plain VE (Section 7, "Algorithms").
    heuristic:
        Variable-elimination heuristic: a name accepted by
        :func:`repro.core.heuristics.make_heuristic` (checked here) or an
        instance; why the default is ``"frequency"``: :mod:`repro.core.heuristics`.
    simplify_subsumed:
        Remove subsumed descriptors before starting (Example 3.2).
    subsumption_every_step:
        Additionally remove subsumed descriptors at every recursive call;
        costlier but can expose more independence. Ablation knob.
    memoize:
        Cache results of repeated sub-ws-sets (component caching, in the
        spirit of BDD node sharing / #SAT solvers).  On by default: the
        canonical keys are cheap O(size) tuple hashes.  ``False`` is the
        ablation knob.
    memo_limit:
        Optional bound on the number of memo-cache entries.  ``None`` (the
        default) keeps the cache unbounded, which is right for one-shot
        computations; long-lived shared engines (sessions, servers) should set
        a limit, turning the memo into a
        :class:`~repro.core.decompose.BoundedMemo` with clear-half eviction.
    condition_memoize:
        Memoise the conditioning recursion itself (on by default): within
        one conditioning run, identical condition-plus-tuple subproblems —
        keyed by the exact interned signature of the residual condition
        *and* the remaining tuple records — are solved once, so sibling
        ⊕-branches leaving the same residual problem share it.  The memo
        lives and dies with the run.  A hit shares the cached rewrite tree
        and its new variables; the unmemoised run allocates copies instead,
        which rule 3 folds into the same variables, so with rule 3 on the
        results are bit-identical.  ``False`` is the ablation knob.
    max_calls, time_limit:
        Optional budget limits forwarded to :class:`~repro.core.decompose.Budget`.
    """

    use_independent_partitioning: bool = True
    heuristic: "str | Heuristic" = "frequency"
    simplify_subsumed: bool = True
    subsumption_every_step: bool = False
    memoize: bool = True
    memo_limit: int | None = None
    condition_memoize: bool = True
    max_calls: int | None = None
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.memo_limit is not None and self.memo_limit < 2:
            raise ValueError("memo_limit must be at least 2")
        make_heuristic(self.heuristic)  # fail fast on an unknown name

    @classmethod
    def indve(cls, heuristic: "str | Heuristic | None" = None, **kw) -> "ExactConfig":
        """INDVE (partitioning + elimination); ``heuristic=None`` takes the default."""
        heuristic = cls.heuristic if heuristic is None else heuristic
        return cls(use_independent_partitioning=True, heuristic=heuristic, **kw)

    @classmethod
    def ve(cls, heuristic: "str | Heuristic | None" = None, **kw) -> "ExactConfig":
        """VE (variable elimination only); ``heuristic=None`` takes the default."""
        heuristic = cls.heuristic if heuristic is None else heuristic
        return cls(use_independent_partitioning=False, heuristic=heuristic, **kw)

    def with_heuristic(self, heuristic: "str | Heuristic") -> "ExactConfig":
        """A copy of this configuration with a different heuristic."""
        return replace(self, heuristic=heuristic)

    @property
    def label(self) -> str:
        """A short label such as ``indve(minlog)`` used in benchmark reports."""
        name = (
            self.heuristic if isinstance(self.heuristic, str) else self.heuristic.name
        )
        method = "indve" if self.use_independent_partitioning else "ve"
        return f"{method}({name})"


@dataclass
class ProbabilityResult:
    """Probability of a ws-set together with run statistics."""

    probability: float
    stats: DecompositionStats = field(default_factory=DecompositionStats)
    cache_hits: int = 0


def probability(
    ws_set: WSSet,
    world_table: "WorldTable",
    config: ExactConfig | None = None,
) -> float:
    """Exact probability (confidence) of the world-set denoted by ``ws_set``.

    This is the paper's exact confidence computation: the probability mass of
    all possible worlds represented by some descriptor in ``ws_set``.

    Examples
    --------
    >>> from repro.db.world_table import WorldTable
    >>> w = WorldTable()
    >>> w.add_variable("x", {1: 0.1, 2: 0.4, 3: 0.5})
    >>> w.add_variable("y", {1: 0.2, 2: 0.8})
    >>> w.add_variable("z", {1: 0.4, 2: 0.6})
    >>> w.add_variable("u", {1: 0.7, 2: 0.3})
    >>> w.add_variable("v", {1: 0.5, 2: 0.5})
    >>> s = WSSet([{"x": 1}, {"x": 2, "y": 1}, {"x": 2, "z": 1},
    ...            {"u": 1, "v": 1}, {"u": 2}])
    >>> round(probability(s, w), 4)   # Example 4.7 of the paper
    0.7578
    """
    return probability_with_stats(ws_set, world_table, config).probability


def probability_with_stats(
    ws_set: WSSet,
    world_table: "WorldTable",
    config: ExactConfig | None = None,
) -> ProbabilityResult:
    """Like :func:`probability` but also returns decomposition statistics."""
    config = config or ExactConfig()
    engine = InternedEngine(world_table, config)
    value = engine.compute_wsset(ws_set)
    return ProbabilityResult(value, engine.stats, engine.cache_hits)


def confidence(
    ws_set: WSSet,
    world_table: "WorldTable",
    config: ExactConfig | None = None,
) -> float:
    """Alias of :func:`probability` using the paper's "confidence" terminology."""
    return probability(ws_set, world_table, config)
