"""A reusable handle on one exact-confidence engine (the query-service seam).

Every public entry point used to rebuild an engine per call — interning the
world table, allocating a fresh memo cache, arming a fresh budget — and throw
all of it away afterwards, so nothing was shared between the many ``conf()``
queries a real workload issues against one world table.  An
:class:`EngineHandle` extracts that per-call setup from
:func:`repro.core.probability.probability` into a long-lived object:

* **one engine, many computations** — the interned representation and the
  memo cache (component cache) survive across calls, so repeated and
  overlapping queries hit warm state;
* **per-computation budgets** — each computation re-arms a fresh
  :class:`~repro.core.decompose.Budget` (call-count and wall-clock limits
  restart per query, as a service expects), optionally overridden per call;
* **staleness tracking** — the handle watches the world table's version
  counter and transparently rebuilds the engine when the table was mutated
  in place, retiring the statistics of the old engine into its aggregates;
  conditioning *replaces* the table by one whose interned ids extend the
  old ones, and the engine (memo included) survives that, see :meth:`rebind`;
* **aggregate statistics** — frames (recursive calls), memo hits, memo size,
  evictions and accumulated wall time across the handle's whole lifetime,
  snapshotted as :class:`EngineStats`;
* **opt-in parallel ⊗-components** — with ``workers=N`` (N ≥ 1) the handle
  owns a persistent :class:`~repro.core.procpool.ProcessPoolBackend` of N
  engine-owning worker processes and dispatches the top-level independent
  components of a ws-set to them (each with its own budget), merging
  ``P = 1 − Π_i (1 − P_i)`` in deterministic component order.  The
  per-component evaluations are exactly the computations the serial engine
  would run below its top-level ⊗-node, so the merged probability is
  bit-identical to the serial result.  The handle's lock is released while
  workers compute, so distinct cold queries from different threads overlap
  too.  The interned id space and the shared memo stay in the parent: the
  memo is consulted before dispatching and worker results are stored back
  into it;
* **sharing across threads** — computations and rebinding are serialised on
  an internal lock, so many threads (e.g. the confidence server's pool
  threads, all driving its one :class:`repro.db.session.Session`) can route
  through *one* handle — one interned space, one memo cache.  Exact
  computations serialise (they share the engine's budget and memo); the lock
  is uncontended in single-threaded use, and statistics snapshots bypass it
  so monitoring never stalls behind a long computation.

:class:`repro.db.session.Session` builds exactly one handle and routes every
exact computation — single queries, batched per-tuple confidences, SQL
execution, the exact leg of the hybrid method — through it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro.core.components import merge_component_values
from repro.core.decompose import Budget, make_memo
from repro.core.interned import InternedEngine
from repro.core.probability import ExactConfig
from repro.core.procpool import ProcessPoolBackend
from repro.errors import UnknownVariableError
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable, Sequence

    from repro.circuit import Circuit
    from repro.core.wsset import WSSet
    from repro.db.world_table import Value, Variable, WorldTable

#: Fewer descriptors than this never go through the worker pool: dispatch
#: latency exceeds the evaluation cost of tiny components.
_MIN_PARALLEL_DESCRIPTORS = 8


@dataclass(frozen=True)
class EngineStats:
    """Aggregate statistics of an :class:`EngineHandle` over its lifetime.

    ``frames`` counts engine recursion frames (decomposition nodes expanded),
    ``memo_hits`` sub-ws-sets answered from the component cache, and
    ``wall_time`` the summed wall-clock seconds of all computations; all three
    include the contributions of engines retired by a rebuild (worker
    processes' frames stay in the workers).  ``memo_size`` and
    ``memo_evictions`` describe the *current* main engine's cache.
    ``engine_rebuilds`` counts engines discarded (an in-place world-table
    mutation, ``clear_cache``, an unrelated table), ``engine_extensions``
    table replacements the live engine survived with its memo because the
    new interned space was a successor of its own (an executed ``assert``).

    ``executor`` names the configured backend (``"serial"`` or
    ``"process"``), ``workers`` is the configured pool size (0 when
    parallelism is off), ``parallel_computations`` / ``parallel_components``
    count the computations routed through the pool and the components they
    dispatched, and ``worker_utilisation`` is the mean fraction of the pool
    that was busy while parallel computations ran (busy worker-seconds
    divided by ``workers ×`` parallel wall-seconds; 0.0 when nothing ran in
    parallel).  ``worker_retries`` counts process-pool chunks resubmitted
    after a broken pool and ``pools_rebuilt`` the broken pools themselves —
    both stay 0 unless workers actually died (see
    :class:`~repro.core.procpool.ProcessPoolBackend`).

    The ``circuit_*`` family tracks the compile-once / evaluate-many layer:
    ``circuits_compiled`` decompositions recorded into circuits,
    ``circuit_cache_hits`` compile requests answered from the handle's
    circuit cache (which lives as long as the engine memo, so it includes
    circuits compiled before an ``assert``), ``circuit_evals`` what-if
    evaluations answered from circuits, and ``circuit_compile_time`` /
    ``circuit_eval_time`` their summed wall-clock seconds.

    ``cond_memo_hits`` / ``cond_memo_misses`` sum the per-run conditioning
    memo's subproblem lookups answered from / added to it, over every
    conditioning run driven through the session that owns the handle
    (:meth:`EngineHandle.count_conditioning`).  Both stay zero when
    ``condition_memoize`` is off or no conditioning ran through the session.
    """

    computations: int = 0
    frames: int = 0
    memo_hits: int = 0
    memo_size: int = 0
    memo_evictions: int = 0
    wall_time: float = 0.0
    engine_rebuilds: int = 0
    engine_extensions: int = 0
    executor: str = "serial"
    workers: int = 0
    parallel_computations: int = 0
    parallel_components: int = 0
    worker_utilisation: float = 0.0
    worker_retries: int = 0
    pools_rebuilt: int = 0
    circuits_compiled: int = 0
    circuit_cache_hits: int = 0
    circuit_evals: int = 0
    circuit_compile_time: float = 0.0
    circuit_eval_time: float = 0.0
    cond_memo_hits: int = 0
    cond_memo_misses: int = 0

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of expanded frames answered from the memo cache."""
        return self.memo_hits / self.frames if self.frames else 0.0

    def as_dict(self) -> dict:
        """A JSON-serialisable snapshot (all fields plus the derived hit rate).

        This is the payload of the confidence server's ``stats`` frame and of
        :attr:`repro.db.session.ConfidenceResult.stats` on the wire.
        """
        payload = {name: getattr(self, name) for name in _STATS_FIELDS}
        payload["memo_hit_rate"] = self.memo_hit_rate
        return payload

    @classmethod
    def from_dict(cls, payload: "dict | list") -> "EngineStats":
        """Rebuild a snapshot from :meth:`as_dict` output (extra keys ignored).

        ``payload`` may also be a *list* of snapshots — the shape a cluster
        coordinator collects, one per shard — in which case the snapshots are
        folded with :meth:`merged`.
        """
        if isinstance(payload, (list, tuple)):
            return cls.merged(cls.from_dict(entry) for entry in payload)
        return cls(**{name: payload[name] for name in _STATS_FIELDS if name in payload})

    @classmethod
    def merged(cls, snapshots: "Iterable[EngineStats]") -> "EngineStats":
        """Fold several engines' statistics into one aggregate view.

        Counters (work done: computations, frames, memo hits, wall time, …)
        sum across engines; point-in-time gauges (``memo_size``,
        ``executor``, ``workers``, ``worker_utilisation``) take the *last*
        snapshot's value — the registry convention of
        :meth:`repro.obs.metrics.MetricsRegistry.merge`.  Folding zero
        snapshots yields the zero stats.
        """
        merged: EngineStats | None = None
        for snapshot in snapshots:
            if merged is None:
                merged = snapshot
                continue
            values = {}
            for name in _STATS_FIELDS:
                if name in _STATS_GAUGE_FIELDS:
                    values[name] = getattr(snapshot, name)
                else:
                    values[name] = getattr(merged, name) + getattr(snapshot, name)
            merged = cls(**values)
        return merged if merged is not None else cls()


#: Every :class:`EngineStats` field name, in declaration (= wire) order; all
#: fields are flat scalars, so the codecs need no recursive ``asdict`` walk.
_STATS_FIELDS = tuple(spec.name for spec in fields(EngineStats))

#: :class:`EngineStats` fields that are point-in-time readings (gauge
#: semantics: last writer wins when merging), not accumulating counters.
_STATS_GAUGE_FIELDS = frozenset(
    {"memo_size", "executor", "workers", "worker_utilisation"}
)


class EngineHandle:
    """One long-lived exact engine with memo reuse across computations."""

    def __init__(
        self,
        world_table: "WorldTable",
        config: ExactConfig | None = None,
        *,
        workers: int | None = None,
    ) -> None:
        if workers is None:
            workers = 0
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 0:
            raise ValueError(
                f"workers must be None or a non-negative integer, got {workers!r}"
            )
        self.config = config or ExactConfig()
        self._world_table = world_table
        # Serialises computations, rebinding and snapshots so the handle can
        # be shared across threads (the confidence server's pool threads).
        # Re-entrant: what_if() holds it while calling compile().
        self._lock = threading.RLock()
        self._engine: InternedEngine | None = None
        self._engine_version: int | None = None
        self._computations = 0
        self._wall_time = 0.0
        self._rebuilds = 0
        self._extensions = 0
        # Frames / hits of engines discarded by rebuilds, folded into stats.
        self._retired_frames = 0
        self._retired_hits = 0
        # Process-pool ⊗-component dispatch (dormant while workers == 0).
        self._workers = workers
        self._closed = False
        self._backend: ProcessPoolBackend | None = None
        self._parallel_computations = 0
        self._parallel_components = 0
        self._parallel_busy_time = 0.0
        self._parallel_wall_time = 0.0
        # Compiled lineage circuits follow the engine memo: the same key (the
        # sorted interned descriptors of the simplified ws-set), the same
        # lifetime (kept by rebind, cleared by _retire) and the same bound.
        self._circuit_cache: dict[tuple, "Circuit"] = make_memo(
            self.config.memo_limit
        )
        self._circuits_compiled = 0
        self._circuit_cache_hits = 0
        self._circuit_evals = 0
        self._circuit_compile_time = 0.0
        self._circuit_eval_time = 0.0
        # Per-run conditioning-memo counters summed by count_conditioning().
        self._cond_memo_hits = 0
        self._cond_memo_misses = 0
        # Latency histograms (engine compute seconds, worker component
        # seconds merged back from the process pool).  Sessions record their
        # per-method request histograms here too, so one registry per handle
        # covers the whole engine side of a deployment.
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Binding / staleness
    # ------------------------------------------------------------------
    @property
    def world_table(self) -> "WorldTable":
        return self._world_table

    @property
    def workers(self) -> int:
        """Size of the ⊗-component process pool (0 = parallelism off)."""
        return self._workers

    @property
    def executor(self) -> str:
        """The execution backend: ``serial`` or ``process`` (``workers`` ≥ 1)."""
        return "process" if self._workers else "serial"

    def rebind(self, world_table: "WorldTable") -> None:
        """Point the handle at a (possibly) different world table.

        Conditioning replaces a database's world table wholesale; sessions
        call this before every computation.  Rebinding to the same object is
        free.  When the new table's interned space is a successor of the
        engine's (the table an executed ``assert`` produced), the live engine
        is re-pointed at it and keeps its memo: conditioning never
        re-weights an existing id, it only appends new ones and orphans
        dropped ones, so every memo entry and compiled circuit still denotes
        the same ws-set (``engine_extensions`` counts these).  Any other
        table retires the engine and the circuits, and the next
        :meth:`engine` access rebuilds cold.
        """
        with self._lock:
            if world_table is self._world_table:
                return
            self._world_table = world_table
            space = world_table.interned() if self._engine is not None else None
            if space is None or not space.shares_ids_with(self._engine.space):
                self._retire()
                return
            self._engine.world_table = world_table
            self._engine.space = space
            self._engine_version = world_table.version
            self._extensions += 1

    def invalidate(self) -> None:
        """Drop the current engine, its memo and the compiled circuits.

        The engine is rebuilt lazily and circuits are recompiled on demand.
        """
        with self._lock:
            self._retire()

    def close(self) -> None:
        """Shut down the worker pool and disable parallel evaluation.

        The handle stays usable — further computations simply run serially;
        without the flag a later multi-component query would silently
        resurrect the pool behind the caller's back.
        """
        with self._lock:
            self._closed = True
            backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()

    def warm_up(self) -> None:
        """Pre-spawn the process pool's workers (no-op without workers).

        Spawned workers are otherwise started lazily on the first parallel
        computation; servers call this before accepting connections so the
        first client never pays the spawn latency.
        """
        with self._lock:
            if not self._workers or self._closed:
                return
            backend = self._ensure_backend()
        backend.warm_up()

    def _retire(self) -> None:
        self._circuit_cache.clear()
        if self._engine is not None:
            self._retired_frames += self._engine.stats.recursive_calls
            self._retired_hits += self._engine.cache_hits
            self._engine = None
            self._rebuilds += 1
        if self._backend is not None:
            # Worker processes drop their engines (and memos) too, so
            # clear_cache()/invalidate() means cold everywhere, not just in
            # the parent.
            self._backend.invalidate()

    def engine(self) -> InternedEngine:
        """The current engine, rebuilt if the world table was mutated."""
        with self._lock:
            version = self._world_table.version
            if self._engine is None or version != self._engine_version:
                self._retire()
                self._engine = InternedEngine(self._world_table, self.config)
                self._engine_version = version
            return self._engine

    def conditioning_memo(self) -> None:
        """``None``: the conditioning memo belongs to each run, not the handle.

        Kept so that callers passing it on as ``condition_wsset(memo=...)``
        still work.
        """
        return None

    def count_conditioning(self, stats) -> None:
        """Add one conditioning run's memo counters to the handle's stats."""
        with self._lock:
            self._cond_memo_hits += stats.memo_hits
            self._cond_memo_misses += stats.memo_misses

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def probability(
        self,
        ws_set: "WSSet",
        *,
        max_calls: int | None = None,
        time_limit: float | None = None,
    ) -> float:
        """Exact probability of a ws-set through the shared engine.

        ``max_calls`` / ``time_limit`` override the config's budget for this
        one computation; either way the budget is re-armed fresh, so limits
        apply per computation, not to the handle's lifetime.  Raises
        :class:`~repro.errors.BudgetExceededError` like the one-shot API.

        With ``workers=N`` the top-level ⊗-components are evaluated by the
        process pool (:meth:`_pooled`), one fresh budget per component and a
        deterministic in-order merge — bit-identical to the serial value.
        """
        if self._pool_engaged():
            return self._pooled([ws_set], max_calls, time_limit)[0]
        with self._lock:
            return self._timed(
                lambda engine: engine.compute_wsset(ws_set), max_calls, time_limit
            )

    def _timed(self, run, max_calls: int | None, time_limit: float | None) -> float:
        engine = self.engine()
        engine.reset_budget(self._budget(max_calls, time_limit))
        started = time.perf_counter()
        with _trace.span("engine_evaluate") as sp:
            # Memo lookups and closed forms are far too hot for per-frame
            # spans; a trace attributes them by counter deltas instead.
            before = engine.phase_counters() if sp.enabled else None
            try:
                return run(engine)
            finally:
                self._account(started)
                if before is not None:
                    after = engine.phase_counters()
                    sp.set(**{key: after[key] - before[key] for key in before})

    def _account(self, started: float) -> None:
        """Book one serial computation that began at ``started``."""
        seconds = time.perf_counter() - started
        self._wall_time += seconds
        self._computations += 1
        self.metrics.histogram("repro_engine_compute_seconds").record(seconds)

    def cached_probability(
        self, ws_set: "WSSet", world_table: "WorldTable"
    ) -> "tuple[float, EngineStats] | None":
        """Non-blocking hit probe: ``(probability, snapshot)`` or ``None``.

        Answers what :meth:`probability` would, booked like any computation,
        when that takes one frame of the live engine
        (:meth:`InternedEngine.cached_wsset`).  Never waits, rebuilds or
        rebinds, so an event loop may call it: ``None`` — ask
        :meth:`probability` — when a computation holds the lock, without a
        live engine, when ``world_table`` (the caller's current one)
        is not the bound table at the engine's version, and on a ws-set the
        engine cannot intern (the worker path reports that error).
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            engine = self._engine
            if (
                engine is None
                or world_table is not self._world_table
                or world_table.version != self._engine_version
            ):
                return None
            engine.reset_budget(Budget())  # a hit needs no budget
            started = time.perf_counter()
            try:
                value = engine.cached_wsset(ws_set)
            except UnknownVariableError:
                return None
            if value is None:
                return None
            self._account(started)
            return value, self.snapshot()
        finally:
            self._lock.release()

    def _budget(self, max_calls: int | None, time_limit: float | None) -> Budget:
        return Budget(
            max_calls if max_calls is not None else self.config.max_calls,
            time_limit if time_limit is not None else self.config.time_limit,
        )

    # ------------------------------------------------------------------
    # Batched computation (the confidence_batch fan-out)
    # ------------------------------------------------------------------
    def probability_many(
        self,
        ws_sets: "Sequence[WSSet]",
        *,
        max_calls: int | None = None,
        time_limit: float | None = None,
    ) -> list[float]:
        """Exact probabilities of several ws-sets, fanned out when possible.

        With ``workers=N`` the whole batch is **one** pool dispatch
        (:meth:`_pooled`): the union of uncached components across *all*
        ws-sets ships to the workers in a single call, and each ws-set merges
        its own component values — bit-identical to evaluating them one by
        one, with cross-ws-set parallelism instead of per-ws-set dispatch
        latency.  Without workers this is a serial loop over
        :meth:`probability`.
        """
        targets = list(ws_sets)
        if targets and self._pool_engaged():
            return self._pooled(targets, max_calls, time_limit)
        return [
            self.probability(target, max_calls=max_calls, time_limit=time_limit)
            for target in targets
        ]

    # ------------------------------------------------------------------
    # Compiled circuits (compile-once / evaluate-many)
    # ------------------------------------------------------------------
    def compile(
        self,
        ws_set: "WSSet",
        *,
        max_calls: int | None = None,
        time_limit: float | None = None,
    ) -> "Circuit":
        """The compiled lineage circuit of a ws-set (cached by structure).

        The ws-set is interned and simplified exactly as an evaluation would;
        the canonical descriptor tuple keys the handle's circuit cache.  A
        miss records the decomposition once (budgeted like a computation);
        every later compile of a structurally identical ws-set — and every
        :meth:`what_if` sweep — reuses the circuit.  The cache lives exactly
        as long as the engine memo: an ``assert`` keeps it, an in-place
        mutation or :meth:`invalidate` drops it.
        """
        from repro.circuit import CircuitRecorder

        with self._lock:
            engine = self.engine()
            interned = engine.simplified(ws_set)
            key = tuple(sorted(interned))
            circuit = self._circuit_cache.get(key)
            if circuit is not None:
                # An assert since the compile may have appended variables
                # that a later sweep or override names.
                circuit.space = engine.space
                self._circuit_cache_hits += 1
                return circuit
            engine.reset_budget(self._budget(max_calls, time_limit))
            started = time.perf_counter()
            with _trace.span("circuit_compile", descriptors=len(interned)):
                circuit = CircuitRecorder(engine).record(interned)
            self._circuit_compile_time += time.perf_counter() - started
            self._circuits_compiled += 1
            self._circuit_cache[key] = circuit
            return circuit

    def what_if(
        self,
        ws_set: "WSSet",
        variable: "Variable",
        ps: "Sequence[float]",
        *,
        value: "Value | None" = None,
    ) -> list[float]:
        """What-if sweep: the ws-set's probability at each point of ``ps``.

        Compiles (or fetches) the circuit for the ws-set, then evaluates the
        sweep without re-decomposition — ``P({variable -> value})`` takes
        each value of ``ps`` in turn, the variable's other alternatives
        rescaled proportionally.  See :meth:`Circuit.evaluate_sweep`.
        """
        with self._lock:
            circuit = self.compile(ws_set)
            started = time.perf_counter()
            try:
                return circuit.evaluate_sweep(variable, ps, value=value)
            finally:
                self._circuit_eval_time += time.perf_counter() - started
                self._circuit_evals += 1

    # ------------------------------------------------------------------
    # Process-pool ⊗-components
    # ------------------------------------------------------------------
    def _pool_engaged(self) -> bool:
        """Whether exact computations go through the process pool."""
        return (
            bool(self._workers)
            and not self._closed
            and self.config.use_independent_partitioning
        )

    def _ensure_backend(self) -> ProcessPoolBackend:
        if self._backend is None:
            self._backend = ProcessPoolBackend(self._workers)
        return self._backend

    def _pooled(
        self,
        targets: "Sequence[WSSet]",
        max_calls: int | None,
        time_limit: float | None,
    ) -> list[float]:
        """Exact probabilities of ``targets`` on the process pool.

        Interning, simplification, the component split and all memo traffic
        happen under the handle lock; the expensive part — evaluating the
        uncached components of *every* target — ships to the pool in one
        :meth:`ProcessPoolBackend.compute` call with the lock *released*.
        Several sessions sharing this handle therefore overlap their cold
        computations across worker processes while still sharing one
        component-level memo: cached components are answered in the parent,
        fresh results are stored back for every later query, and each target
        merges its component values in component order.

        A target with fewer descriptors than the dispatch floor never pays
        the IPC round trip: it runs on the parent's engine under the lock,
        through the engine's own entry path (closed form before the component
        split), so it stays bit-identical to the serial engine.
        Single-component targets still dispatch — that is what lets a
        server's distinct single-component queries use distinct cores.
        """
        config = self.config
        # Workers re-arm plain Budgets from what they receive, so config-level
        # limits must be folded in here (the serial path does it in _budget()).
        if max_calls is None:
            max_calls = config.max_calls
        if time_limit is None:
            time_limit = config.time_limit
        started = time.perf_counter()
        # One slot list per target: memo hits and in-parent values are filled
        # in under the lock, worker results after the dispatch.
        groups: list[list[float]] = []
        jobs: list[tuple[list[float], int, tuple | None, list]] = []
        computed: list[tuple[float, float]] = []
        split = False
        busy = 0.0
        try:
            with self._lock:
                # A close() racing the dispatch decision splits nothing: every
                # target then runs here rather than resurrecting the pool.
                open_pool = not self._closed
                engine = self.engine()
                space = engine.space
                cache = engine.cache if engine.memoize else None
                for target in targets:
                    with _trace.span("decompose") as sp:
                        interned = engine.simplified(target)
                        components = None
                        if open_pool and len(interned) >= _MIN_PARALLEL_DESCRIPTORS:
                            components = engine.components_of(interned)
                        if sp.enabled:
                            sp.set(
                                descriptors=len(interned),
                                components=1 if components is None
                                else len(components),
                            )
                    if components is None:
                        engine.reset_budget(self._budget(max_calls, time_limit))
                        groups.append([engine.run(interned)])
                        continue
                    split = True
                    slots = [0.0] * len(components)
                    queued = len(jobs)
                    with _trace.span("memo_lookup") as sp:
                        for index, component in enumerate(components):
                            key = None
                            if cache is not None:
                                key = tuple(sorted(component))
                                hit = cache.get(key)
                                if hit is not None:
                                    engine.cache_hits += 1
                                    slots[index] = hit
                                    continue
                            jobs.append((slots, index, key, component))
                        if sp.enabled:
                            sp.set(
                                components=len(components),
                                hits=len(components) - (len(jobs) - queued),
                            )
                    groups.append(slots)
                backend = self._ensure_backend() if split else None
            if backend is not None:
                tracer = _trace.current_tracer()
                span_sink: list[dict] | None = [] if tracer is not None else None
                with _trace.span("dispatch", jobs=len(jobs)):
                    computed = backend.compute(
                        space,
                        config,
                        [component for _, _, _, component in jobs],
                        max_calls,
                        time_limit,
                        metrics=self.metrics,
                        spans=span_sink,
                    )
                    if tracer is not None and span_sink:
                        tracer.attach_remote(span_sink)
                busy = sum(seconds for _, seconds in computed)
        finally:
            elapsed = time.perf_counter() - started
            self.metrics.histogram("repro_engine_compute_seconds").record(elapsed)
            with self._lock:
                self._wall_time += elapsed
                self._computations += len(targets)
                if split:
                    self._parallel_wall_time += elapsed
                    self._parallel_busy_time += busy
                    self._parallel_computations += 1
                    self._parallel_components += len(jobs)
        if split:
            with self._lock, _trace.span("merge", jobs=len(jobs)):
                for (slots, index, key, _component), (value, _seconds) in zip(
                    jobs, computed
                ):
                    slots[index] = value
                    if key is not None:
                        cache[key] = value
        return [merge_component_values(slots) for slots in groups]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def snapshot(self) -> EngineStats:
        """Aggregate statistics of all computations so far.

        Deliberately does *not* take the computation lock: statistics must
        stay readable (server ``stats`` frames, per-result snapshots from
        other pool threads) while a long computation holds the lock on a
        shared handle.  Counters read mid-computation are a best-effort
        snapshot; each individual read is atomic under the GIL.
        """
        engine = self._engine
        frames = self._retired_frames
        hits = self._retired_hits
        memo_size = 0
        evictions = 0
        if engine is not None:
            frames += engine.stats.recursive_calls
            hits += engine.cache_hits
            memo_size = len(engine.cache)
            evictions = getattr(engine.cache, "evictions", 0)
        utilisation = 0.0
        if self._workers and self._parallel_wall_time > 0.0:
            utilisation = self._parallel_busy_time / (
                self._workers * self._parallel_wall_time
            )
        backend = self._backend
        return EngineStats(
            computations=self._computations,
            frames=frames,
            memo_hits=hits,
            memo_size=memo_size,
            memo_evictions=evictions,
            wall_time=self._wall_time,
            engine_rebuilds=self._rebuilds,
            engine_extensions=self._extensions,
            executor=self.executor,
            workers=self._workers,
            parallel_computations=self._parallel_computations,
            parallel_components=self._parallel_components,
            worker_utilisation=utilisation,
            worker_retries=backend.chunk_retries if backend is not None else 0,
            pools_rebuilt=backend.pools_broken if backend is not None else 0,
            circuits_compiled=self._circuits_compiled,
            circuit_cache_hits=self._circuit_cache_hits,
            circuit_evals=self._circuit_evals,
            circuit_compile_time=self._circuit_compile_time,
            circuit_eval_time=self._circuit_eval_time,
            cond_memo_hits=self._cond_memo_hits,
            cond_memo_misses=self._cond_memo_misses,
        )

    def __repr__(self) -> str:
        stats = self.snapshot()
        return (
            f"EngineHandle({self.config.label}, computations={stats.computations}, "
            f"memo={stats.memo_size} entries, {stats.memo_hits} hits)"
        )
