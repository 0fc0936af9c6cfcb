"""Session-based confidence service: one shared engine for many queries.

A :class:`Session` binds a :class:`~repro.db.database.ProbabilisticDatabase`
(or a bare :class:`~repro.db.world_table.WorldTable`) and owns exactly one
:class:`~repro.core.engine.EngineHandle` — the interned representation, the
memo (component) cache and the budget machinery live for the whole session
instead of being rebuilt and discarded per call.  All confidence queries go
through a unified request/response interface:

* :class:`ConfidenceRequest` names a target (ws-set, U-relation, or relation
  name) and a ``method`` — ``"exact"``, ``"karp_luby"``, ``"montecarlo"`` or
  ``"hybrid"`` (exact under a budget, falling back to Karp-Luby when the
  budget is exceeded);
* :class:`ConfidenceResult` carries the value, the method *actually* used,
  the error bound for approximate answers, and a snapshot of the engine
  statistics (memo hits, frames, wall time).

Batched queries (:meth:`Session.confidence_batch`) compute the per-tuple
``conf()`` aggregate of a whole relation in one grouped pass over the shared
engine, so sub-ws-sets common to several value tuples are solved once.  The
SQL executor runs through a session as well (:meth:`Session.execute` /
:meth:`Session.execute_script`), giving multi-statement scripts and repeated
``conf()`` queries the same warm state.  :class:`AsyncSession` is the
:class:`~repro.db.api.AsyncAdapter` over a session, with a non-blocking
cache probe (:meth:`Session.cached`) in front of its worker thread.

The confidence server (:mod:`repro.server`) drives one :class:`Session`
from a pool of threads: exact computations serialise on the engine handle's
lock (one interned space, one memo cache for every connection), while the
sampling methods interleave freely.  ``to_payload`` / ``from_payload`` on
:class:`ConfidenceRequest` and :class:`ConfidenceResult` are the wire codecs.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.engine import EngineHandle, EngineStats
from repro.core.probability import ExactConfig
from repro.core.wsset import WSSet

# The confidence-target wire codec lives in repro.db.api (one module shared
# with the server protocol); the names are re-exported here because earlier
# releases defined them in this module.
from repro.db.api import target_from_payload, target_to_payload  # noqa: F401
from repro.db.api import AsyncAdapter, ConfidenceAPI, confidence_requests
from repro.db.confidence import ConfidenceRow
from repro.db.urelation import URelation
from repro.db.world_table import WorldTable
from repro.errors import BudgetExceededError, QueryError
from repro.obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit import Circuit
    from repro.db.database import ProbabilisticDatabase
    from repro.sql.executor import QueryResult

#: Methods accepted by :attr:`ConfidenceRequest.method`.
METHODS = ("exact", "karp_luby", "montecarlo", "hybrid")

#: The optional :class:`ConfidenceRequest` fields, as they travel on the wire
#: (each omitted while unset).
REQUEST_OPTIONS = (
    "epsilon", "delta", "seed", "max_calls", "time_limit", "hybrid_scale",
    "deadline_ms", "trace",
)

#: Default memo bound installed by sessions when the config leaves memoisation
#: unbounded: large enough that ordinary workloads never evict, small enough
#: that a long-running server cannot grow without bound.
DEFAULT_MEMO_LIMIT = 1 << 20

#: Ceiling (and historical default) of the exact-leg call budget of
#: ``method="hybrid"``; the adaptive budget never exceeds it at scale 1.
DEFAULT_HYBRID_MAX_CALLS = 200_000

#: Floor of the adaptive hybrid budget: even tiny instances get this many
#: calls before the exact leg is declared hopeless.
HYBRID_BUDGET_FLOOR = 2_000

#: Adaptive budget coefficient: exact-leg calls granted per descriptor ×
#: variable unit of the queried ws-set.
HYBRID_CALLS_PER_UNIT = 64

#: Fraction of a request's remaining deadline granted to the exact leg when
#: ``deadline_ms`` is set; the rest is headroom for the Karp-Luby fallback,
#: so a degraded request still answers *inside* the deadline.
DEADLINE_EXACT_FRACTION = 0.5


def adaptive_hybrid_budget(
    descriptor_count: int, variable_count: int, scale: float = 1.0
) -> int:
    """The exact-leg call budget of ``method="hybrid"``, from instance size.

    Small instances deserve a real attempt at an exact answer, huge ones
    should fall back to Karp-Luby quickly — a single constant can't do both,
    so the budget grows with ``descriptor_count × variable_count`` (the two
    size measures of Section 7's #P-hard generator), floored at
    :data:`HYBRID_BUDGET_FLOOR` and capped at
    :data:`DEFAULT_HYBRID_MAX_CALLS`.  ``scale`` multiplies the derived
    budget (the :attr:`ConfidenceRequest.hybrid_scale` knob), so ``scale > 1``
    deliberately exceeds the default ceiling and a tiny scale forces an early
    fallback.
    """
    units = max(1, descriptor_count) * max(1, variable_count)
    derived = min(
        DEFAULT_HYBRID_MAX_CALLS,
        max(HYBRID_BUDGET_FLOOR, HYBRID_CALLS_PER_UNIT * units),
    )
    return max(1, int(scale * derived))


@dataclass(frozen=True)
class ConfidenceRequest:
    """One confidence query against a session.

    ``epsilon`` / ``delta`` / ``seed`` configure the approximate methods (and
    the fallback leg of ``hybrid``); ``max_calls`` / ``time_limit`` override
    the session's per-computation budget for the exact methods (and bound the
    exact leg of ``hybrid``); ``hybrid_scale`` (1.0 when unset) multiplies
    the *adaptive* exact-leg budget of ``hybrid`` when no explicit budget is
    given (see :func:`adaptive_hybrid_budget`).  Unset fields inherit the session
    defaults.

    ``deadline_ms`` is the request's answer-by budget: for ``exact`` and
    ``hybrid`` requests the exact leg gets
    :data:`DEADLINE_EXACT_FRACTION` of it as a wall-clock limit and a blown
    budget *degrades* to a Karp-Luby (ε, δ) answer instead of raising — the
    caller asked for an answer by a time, not for a particular algorithm.
    The sampling methods run unchanged (they are anytime-cheap already).
    The confidence server folds each request frame's remaining deadline into
    this field after admission.

    ``trace: True`` asks the session to record a per-phase span tree for this
    one request (see :mod:`repro.obs`): the answering
    :class:`ConfidenceResult` carries it as :attr:`ConfidenceResult.trace`
    and the session keeps it as :attr:`Session.last_trace`.
    """

    target: "WSSet | URelation | str"
    method: str = "exact"
    epsilon: float | None = None
    delta: float | None = None
    seed: int | None = None
    max_calls: int | None = None
    time_limit: float | None = None
    hybrid_scale: float | None = None
    deadline_ms: float | None = None
    trace: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            known = ", ".join(METHODS)
            raise ValueError(f"unknown method {self.method!r}; known methods: {known}")
        for name in ("deadline_ms", "time_limit", "hybrid_scale", "max_calls"):
            value = getattr(self, name)
            kinds = int if name == "max_calls" else (int, float)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, kinds) or value <= 0
            ):
                kind = "integer" if name == "max_calls" else "number"
                raise ValueError(f"{name} must be a positive {kind}, got {value!r}")
        if not isinstance(self.trace, bool):
            raise ValueError(f"trace must be a boolean, got {self.trace!r}")

    def to_payload(self) -> dict:
        """A JSON-serialisable form of this request (the wire representation).

        The target is encoded via :func:`target_to_payload`; a
        :class:`~repro.db.urelation.URelation` target degrades to its ws-set
        (the relation object itself cannot travel).
        """
        payload: dict = {
            "target": target_to_payload(self.target),
            "method": self.method,
        }
        for name in REQUEST_OPTIONS:
            value = getattr(self, name)
            if value is not None and value is not False:
                payload[name] = value
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ConfidenceRequest":
        """Rebuild a request from :meth:`to_payload` output.

        Raises :class:`ValueError` (or ``KeyError`` for a missing target) on
        malformed payloads — including unknown option names, which would be
        a ``TypeError`` against the local constructor and must not be
        silently dropped on the wire.  The server maps these onto protocol
        error frames.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"confidence request must be an object, got {payload!r}")
        unknown = set(payload) - {"target", "method", *REQUEST_OPTIONS}
        if unknown:
            raise ValueError(f"unknown confidence request fields {sorted(unknown)}")
        options = {
            name: payload[name]
            for name in REQUEST_OPTIONS
            if payload.get(name) is not None
        }
        return cls(
            target_from_payload(payload["target"]),
            payload.get("method", "exact"),
            **options,
        )


@dataclass
class ConfidenceResult:
    """The answer to one :class:`ConfidenceRequest`.

    ``method`` is the backend that actually produced the value (for
    ``hybrid`` requests it is ``"exact"`` or ``"karp_luby"`` depending on
    whether the budget held); ``epsilon`` / ``delta`` carry the (ε, δ) error
    bound of approximate answers and are ``None`` for exact ones; ``stats``
    snapshots the shared engine's lifetime statistics at answer time.
    """

    value: float
    method: str
    requested_method: str
    epsilon: float | None = None
    delta: float | None = None
    iterations: int | None = None
    fell_back: bool = False
    fallback_reason: str | None = None
    wall_time: float = 0.0
    stats: EngineStats = field(default_factory=EngineStats)
    #: The request's span tree (see :mod:`repro.obs.trace`), present only
    #: when the request asked for one with ``trace=True``.
    trace: dict | None = None

    @property
    def is_exact(self) -> bool:
        return self.method == "exact"

    def to_payload(self) -> dict:
        """A JSON-serialisable form of this result (the wire representation)."""
        payload = {
            "value": self.value,
            "method": self.method,
            "requested_method": self.requested_method,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "iterations": self.iterations,
            "fell_back": self.fell_back,
            "fallback_reason": self.fallback_reason,
            "wall_time": self.wall_time,
            "stats": self.stats.as_dict(),
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ConfidenceResult":
        """Rebuild a result from :meth:`to_payload` output."""
        return cls(
            value=payload["value"],
            method=payload["method"],
            requested_method=payload.get("requested_method", payload["method"]),
            epsilon=payload.get("epsilon"),
            delta=payload.get("delta"),
            iterations=payload.get("iterations"),
            fell_back=payload.get("fell_back", False),
            fallback_reason=payload.get("fallback_reason"),
            wall_time=payload.get("wall_time", 0.0),
            stats=EngineStats.from_dict(payload.get("stats", {})),
            trace=payload.get("trace"),
        )


class Session(ConfidenceAPI):
    """A long-lived confidence service over one probabilistic database.

    Examples
    --------
    >>> from repro.db.database import ProbabilisticDatabase
    >>> db = ProbabilisticDatabase()
    >>> db.world_table.add_variable("x", {1: 0.3, 2: 0.7})
    >>> r = db.create_relation("R", ("A",))
    >>> r.add({"x": 1}, ("a",))
    >>> session = db.session()
    >>> round(session.confidence("R").value, 6)
    0.3
    """

    def __init__(
        self,
        source: "ProbabilisticDatabase | WorldTable",
        config: ExactConfig | None = None,
        *,
        epsilon: float = 0.1,
        delta: float = 0.01,
        seed: int | None = None,
        workers: int | None = None,
        trace: bool = False,
    ) -> None:
        config = config or ExactConfig()
        if config.memo_limit is None and config.memoize:
            # Bound the shared memo sanely: a session's cache must not grow
            # without bound over thousands of queries.
            config = replace(config, memo_limit=DEFAULT_MEMO_LIMIT)
        self.config = config
        self.epsilon = epsilon
        self.delta = delta
        self.seed = seed
        # trace=True traces every request of this session; the most recent
        # span tree is kept on last_trace.
        self._trace = trace
        self.last_trace: dict | None = None
        if isinstance(source, WorldTable):
            self._database: "ProbabilisticDatabase | None" = None
            world_table = source
        else:
            self._database = source
            world_table = source.world_table
        # workers=N (N >= 1): the handle evaluates independent ⊗-components
        # on a pool of N processes, bit-identical to workers=None.
        self._handle = EngineHandle(world_table, config, workers=workers)

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    @property
    def database(self) -> "ProbabilisticDatabase | None":
        """The bound database, or ``None`` for a bare world-table session."""
        return self._database

    def refresh(self) -> WorldTable:
        """Re-resolve the current world table and rebind the engine handle.

        Conditioning replaces a database's world table object wholesale;
        rebinding keeps the handle pointed at the current one (see
        :meth:`EngineHandle.rebind` for what survives the switch).  Called
        before every computation.
        """
        world_table = self._current_world_table()
        self._handle.rebind(world_table)
        return world_table

    def _current_world_table(self) -> WorldTable:
        if self._database is not None:
            return self._database.world_table
        return self._handle.world_table

    @property
    def world_table(self) -> WorldTable:
        """The current world table (re-resolved so conditioning is seen)."""
        return self.refresh()

    @property
    def handle(self) -> EngineHandle:
        """The shared engine handle (exposed for benchmarks and diagnostics)."""
        return self._handle

    def statistics(self) -> EngineStats:
        """Aggregate engine statistics over the session's lifetime."""
        return self._handle.snapshot()

    stats = property(statistics, doc="Alias of :meth:`statistics`.")

    @property
    def workers(self) -> int:
        """Size of the ⊗-component process pool (0 = serial)."""
        return self._handle.workers

    @property
    def executor(self) -> str:
        """The execution backend, ``serial`` or ``process`` (read-only)."""
        return self._handle.executor

    def close(self) -> None:
        """Release the worker pool (if any); the session stays usable serially."""
        self._handle.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def clear_cache(self) -> None:
        """Drop the engine's memo cache (it is rebuilt lazily)."""
        self._handle.invalidate()

    def as_async(self) -> "AsyncSession":
        """An :class:`AsyncSession` facade over this session."""
        return AsyncSession(self)

    # ------------------------------------------------------------------
    # The unified query interface
    # ------------------------------------------------------------------
    def query(self, request: ConfidenceRequest) -> ConfidenceResult:
        """Answer one :class:`ConfidenceRequest` (the body of
        :meth:`confidence_many`, called directly to skip the batch wrapping)."""
        ws_set = self._as_wsset(request.target)
        return self._confidence_wsset(ws_set, request)

    def cached(self, request: ConfidenceRequest) -> ConfidenceResult | None:
        """Answer ``request`` from the engine's cache, or ``None``; never blocks.

        The result is the one :meth:`query` would give — value, methods,
        statistics, the ``repro_session_request_seconds`` sample — for an
        ``exact`` / ``hybrid`` request on a :class:`WSSet` that the live
        engine resolves in one frame (:meth:`EngineHandle.cached_probability`
        lists what else declines).  A deadline or budget does not disqualify
        a hit; traced requests, sampling methods and relation / name targets
        (O(rows) to collect) always do.  :class:`AsyncSession` calls this on
        the event loop before paying for its thread hop.
        """
        ws_set = request.target
        if (
            request.trace
            or self._trace
            or request.method not in ("exact", "hybrid")
            or not isinstance(ws_set, WSSet)
        ):
            return None
        started = time.perf_counter()
        hit = self._handle.cached_probability(ws_set, self._current_world_table())
        if hit is None:
            return None
        value, stats = hit
        result = ConfidenceResult(value, "exact", request.method, stats=stats)
        result.wall_time = time.perf_counter() - started
        self._handle.metrics.histogram(
            "repro_session_request_seconds", method="exact"
        ).record(result.wall_time)
        return result

    def confidence_many(
        self,
        targets: "Iterable[WSSet | URelation | str | ConfidenceRequest]",
        method: str = "exact",
        **options,
    ) -> list[ConfidenceResult]:
        """Answer several queries through the shared engine, in order."""
        return [
            self.query(request)
            for request in confidence_requests(targets, method, options)
        ]

    # ------------------------------------------------------------------
    # Compiled circuits: what-if sweeps without re-decomposition
    # ------------------------------------------------------------------
    def compile(
        self,
        target: "WSSet | URelation | str",
        *,
        max_calls: int | None = None,
        time_limit: float | None = None,
    ) -> "Circuit":
        """Compile the target's lineage into a reusable circuit.

        The :class:`~repro.circuit.circuit.Circuit` re-evaluates the target
        under re-weightings, what-if sweeps and per-weight gradients without
        decomposing again.  The handle caches circuits by descriptor
        structure (:meth:`EngineHandle.compile`) for as long as the engine
        memo lives: an ``assert`` keeps every cached circuit (conditioning
        never re-weights an existing variable id), an in-place mutation or
        :meth:`clear_cache` drops them.
        """
        ws_set = self._as_wsset(target)
        self.refresh()
        return self._handle.compile(ws_set, max_calls=max_calls, time_limit=time_limit)

    def what_if(
        self,
        target: "WSSet | URelation | str",
        variable,
        ps: "Sequence[float]",
        *,
        value=None,
        deadline_ms: float | None = None,
    ) -> list[float]:
        """The target's confidence at each point of a what-if sweep.

        Point ``i`` answers "what if ``P({variable -> value})`` were
        ``ps[i]``?", the variable's other alternatives rescaled
        proportionally; ``value`` defaults to its first alternative.  The
        sweep runs on the compiled circuit, at per-point microseconds.  A
        served ``deadline_ms`` bounds only queueing, and a local session has
        no queue, so here it is ignored.
        """
        ws_set = self._as_wsset(target)
        self.refresh()
        return self._handle.what_if(ws_set, variable, ps, value=value)

    # ------------------------------------------------------------------
    # Conditioning through the shared handle
    # ------------------------------------------------------------------
    def conditioned(self, condition, **conditioning_options):
        """The posterior database for ``condition``, without mutating the prior.

        Same contract as
        :meth:`~repro.db.database.ProbabilisticDatabase.conditioned`, run
        with the session's config, so ``condition_memoize`` governs the
        run's own subproblem memo; its hit and miss counts are added to
        :meth:`statistics` (``cond_memo_hits`` / ``cond_memo_misses``).
        """
        database = self._require_database()
        self.refresh()
        # Build the engine now, so that the posterior table an assert
        # installs extends it (an engine extension) instead of retiring it.
        self._handle.engine()
        posterior, summary = database.conditioned(
            condition, self.config, **conditioning_options
        )
        self._handle.count_conditioning(summary.result.stats)
        return posterior, summary

    def assert_condition(self, condition, **conditioning_options):
        """Assert ``condition`` on the session's database, in place.

        Runs like :meth:`conditioned`, then rebinds the handle to the
        posterior world table at once, so no later computation sees
        pre-assert state.  Python-level work is that of the rows sharing a
        variable with the condition (everything else is shared with the
        prior), and the engine keeps its memo (posterior interned ids extend
        the prior's), so reads the assert did not reach stay warm.
        """
        database = self._require_database()
        self.refresh()
        self._handle.engine()
        summary = database.assert_condition(
            condition, self.config, **conditioning_options
        )
        self._handle.count_conditioning(summary.result.stats)
        self.refresh()
        return summary

    # ------------------------------------------------------------------
    # Batched per-tuple confidence (the conf() aggregate)
    # ------------------------------------------------------------------
    def confidence_batch(
        self, relation: "URelation | str", method: str = "exact", **options
    ) -> list[ConfidenceRow]:
        """``conf()`` of every distinct value tuple, in one grouped pass.

        All value tuples of the relation are solved against the *same* engine,
        so sub-ws-sets shared between tuples (common lineage, overlapping
        descriptor sets) are computed once and served from the memo cache.
        """
        grouped = self._as_relation(relation).descriptors_by_values()
        targets = list(grouped.values())
        if (
            method == "exact"
            and targets
            and self._handle.workers
            and options.get("deadline_ms") is None
        ):
            # The whole batch in one pool dispatch (the union of uncached
            # components, merged per group), bit-identical to the loop
            # below.  A deadline keeps the loop, which can degrade each
            # group to a sampled answer inside its budget.
            request = ConfidenceRequest(targets[0], method, **options)
            self.refresh()
            values = self._handle.probability_many(
                targets,
                max_calls=request.max_calls,
                time_limit=request.time_limit,
            )
            return [
                ConfidenceRow(tuple_values, value)
                for tuple_values, value in zip(grouped, values)
            ]
        return [
            ConfidenceRow(values, self.confidence(target, method, **options).value)
            for values, target in grouped.items()
        ]

    # ------------------------------------------------------------------
    # SQL execution through the session
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> "QueryResult":
        """Execute one SQL statement with the session's shared engine."""
        from repro.sql.executor import execute

        return execute(self._require_database(), sql, session=self)

    def execute_script(self, sql: str) -> "list[QueryResult]":
        """Execute a ``;``-separated script; all statements share the engine."""
        from repro.sql.executor import execute_script

        return execute_script(self._require_database(), sql, session=self)

    # ------------------------------------------------------------------
    # Method backends
    # ------------------------------------------------------------------
    def _confidence_wsset(
        self, ws_set: WSSet, request: ConfidenceRequest
    ) -> ConfidenceResult:
        tracing = request.trace or self._trace
        tracer = (
            _trace.Tracer("request", method=request.method) if tracing else None
        )
        previous = _trace.activate(tracer) if tracing else None
        started = time.perf_counter()
        try:
            if request.method in ("karp_luby", "montecarlo"):
                result = self._sample(ws_set, request, request.method)
            elif request.method == "exact" and request.deadline_ms is None:
                result = self._exact(ws_set, request)
            else:
                result = self._bounded_exact(ws_set, request)
        finally:
            if tracing:
                _trace.deactivate(previous)
        # Whole-request wall time: covers the approximate backends and both
        # legs of a hybrid request, not just time inside the exact engine.
        result.wall_time = time.perf_counter() - started
        result.stats = self._handle.snapshot()
        self._handle.metrics.histogram(
            "repro_session_request_seconds", method=result.method
        ).record(result.wall_time)
        if tracer is not None:
            # The root span takes the request's measured wall time, so a
            # trace's phase self-times sum exactly to wall_time.
            payload = tracer.finish(result.wall_time)
            result.trace = payload
            self.last_trace = payload
        return result

    def _exact(self, ws_set: WSSet, request: ConfidenceRequest) -> ConfidenceResult:
        self.refresh()
        value = self._handle.probability(
            ws_set, max_calls=request.max_calls, time_limit=request.time_limit
        )
        return ConfidenceResult(value, "exact", request.method)

    def _sample(
        self, ws_set: WSSet, request: ConfidenceRequest, method: str
    ) -> ConfidenceResult:
        """An (ε, δ) estimate by ``method`` (``karp_luby`` or ``montecarlo``)."""
        from repro.approx.karp_luby import karp_luby_confidence
        from repro.approx.montecarlo import naive_monte_carlo_confidence

        sampler = (
            karp_luby_confidence
            if method == "karp_luby"
            else naive_monte_carlo_confidence
        )
        epsilon = request.epsilon if request.epsilon is not None else self.epsilon
        delta = request.delta if request.delta is not None else self.delta
        seed = request.seed if request.seed is not None else self.seed
        approximation = sampler(
            ws_set, self.world_table, epsilon=epsilon, delta=delta, seed=seed
        )
        return ConfidenceResult(
            approximation.estimate,
            method,
            request.method,
            epsilon=epsilon,
            delta=delta,
            iterations=approximation.iterations,
        )

    def _exact_budget(
        self, ws_set: WSSet, request: ConfidenceRequest
    ) -> tuple[int | None, float | None]:
        """The exact leg's ``(max_calls, time_limit)`` for a bounded request.

        A ``hybrid`` request without a call budget, and without a time limit
        or with a deadline, gets one derived from the instance size
        (:func:`adaptive_hybrid_budget`, scaled by ``hybrid_scale``), so
        "hybrid" always means "bounded exact" and whichever bound trips first
        triggers the fallback.  A deadline then grants the exact leg
        :data:`DEADLINE_EXACT_FRACTION` of itself as a wall-clock limit —
        only ever tightening a limit already set — which leaves deadline for
        the Karp-Luby fallback to answer in time.
        """
        max_calls, time_limit = request.max_calls, request.time_limit
        deadline_ms = request.deadline_ms
        if (
            request.method == "hybrid"
            and max_calls is None
            and (time_limit is None or deadline_ms is not None)
        ):
            scale = request.hybrid_scale if request.hybrid_scale is not None else 1.0
            max_calls = adaptive_hybrid_budget(
                len(ws_set), len(ws_set.variables()), scale
            )
        if deadline_ms is not None:
            share = (deadline_ms / 1000.0) * DEADLINE_EXACT_FRACTION
            time_limit = share if time_limit is None else min(time_limit, share)
        return max_calls, time_limit

    def _bounded_exact(
        self, ws_set: WSSet, request: ConfidenceRequest
    ) -> ConfidenceResult:
        """Exact under :meth:`_exact_budget`, degrading to Karp-Luby when it trips.

        Serves ``hybrid`` requests and ``exact`` requests with a deadline: the
        caller asked for an answer (by a time), not for a particular
        algorithm, so a blown budget answers with an (ε, δ) estimate instead
        of raising.
        """
        max_calls, time_limit = self._exact_budget(ws_set, request)
        try:
            return self._exact(
                ws_set, replace(request, max_calls=max_calls, time_limit=time_limit)
            )
        except BudgetExceededError as exceeded:
            fallback = self._sample(ws_set, request, "karp_luby")
            fallback.fell_back = True
            fallback.fallback_reason = (
                str(exceeded)
                if request.deadline_ms is None
                else f"deadline of {request.deadline_ms:g} ms bounded the exact "
                f"computation ({exceeded})"
            )
            return fallback

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _require_database(self) -> "ProbabilisticDatabase":
        if self._database is None:
            raise QueryError(
                "this session is bound to a bare world table; "
                "bind a ProbabilisticDatabase to execute SQL or name relations"
            )
        return self._database

    def _as_relation(self, target: "URelation | str") -> URelation:
        if isinstance(target, URelation):
            return target
        return self._require_database().relation(target)

    def _as_wsset(self, target: "WSSet | URelation | str") -> WSSet:
        if isinstance(target, WSSet):
            return target
        if isinstance(target, URelation):
            return target.descriptors()
        if isinstance(target, str):
            return self._require_database().relation(target).descriptors()
        raise TypeError(f"cannot interpret {target!r} as a confidence target")

    def __repr__(self) -> str:
        bound = repr(self._database) if self._database is not None else "world table"
        stats = self.statistics()
        return (
            f"Session({bound}, {stats.computations} computations, "
            f"{stats.memo_hits} memo hits)"
        )


class AsyncSession(AsyncAdapter):
    """The :class:`~repro.db.api.AsyncAdapter` over a :class:`Session`.

    :meth:`confidence_many` (so the derived ``query`` and ``confidence``)
    first asks :meth:`Session.cached` on the event loop thread, once per
    request: the hop to the worker thread costs several times a hit.
    """

    def __init__(self, session: Session, *, owns_session: bool = False) -> None:
        # owns_session: db.async_session() hands out only this facade, so its
        # close() also releases the session's pool; a borrowed one is left.
        super().__init__(session, owns_target=owns_session, thread_name="repro-session")
        self.session = session

    async def confidence_many(
        self, targets, method: str = "exact", **options
    ) -> list[ConfidenceResult]:
        """``asyncio.gather`` over one task per target: a cache hit, or
        :meth:`Session.query` on the worker thread."""

        async def answer(request: ConfidenceRequest) -> ConfidenceResult:
            result = self.session.cached(request)
            if result is None:
                result = await self._run(self.session.query, request)
            return result

        requests = confidence_requests(targets, method, options)
        return list(await asyncio.gather(*map(answer, requests)))

    def __repr__(self) -> str:
        return f"AsyncSession({self.session!r})"
