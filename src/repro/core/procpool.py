"""Process-pool execution backend: interned components evaluated off the GIL.

The decomposition core is pure Python, so threads would only interleave exact
confidence computation under the GIL.  This module is the backend behind
``Session(workers=N)`` / ``EngineHandle(workers=N)``: top-level ⊗-components
(and, through the confidence server, whole cold queries) are shipped to a
persistent pool of N worker *processes*, each owning a long-lived
:class:`InternedEngine`.

Everything that travels is cheap and picklable by construction:

* **task units** are lists of packed descriptor tuples — the interned
  substrate of :mod:`repro.core.interned`, plain ints all the way down;
* the **id space** travels as a :class:`SpaceSnapshot` — the dense
  ``weights`` / ``shift`` / ``mask`` arrays of the parent's
  :class:`~repro.core.interned.InternedSpace`, without the variable/value
  objects (workers never need them: packed evaluation only touches ids).
  The snapshot rides along with every task (O(total alternatives) floats
  per chunk — tasks can land on any worker, so there is no per-worker
  "already sent" bookkeeping); its ``generation`` tag is what lets a
  worker *keep its engine and memo* across tasks instead of rebuilding
  them per chunk;
* **results** are floats, and worker exceptions re-raise in the parent with
  their original :mod:`repro.errors` types.

Workers re-arm a fresh :class:`~repro.core.decompose.Budget` per component
(per-worker budget accounting) and keep their memo caches across tasks, so
repeated components within a worker stay warm.  The parent-side memo and
the interned space never leave the parent process —
:class:`~repro.core.engine.EngineHandle` consults its shared memo before
dispatching and stores worker results back into it.

A worker that dies outside Python (killed, segfault) breaks the executing
pool.  Because every task is *pure* — packed ints in, floats out, the memo
held by the parent — losing a worker loses no state, so the backend discards
the broken pool, rebuilds it, and retries exactly the chunks whose results
were lost, once.  Only when the retry breaks the pool *again* does the
in-flight computation fail with a typed
:class:`~repro.errors.WorkerPoolError`; either way the next computation runs
on a fresh pool.
"""

from __future__ import annotations

import heapq
import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import TYPE_CHECKING

from repro.core.decompose import Budget
from repro.core.heuristics import component_dispatch_cost
from repro.errors import WorkerPoolError
from repro.obs.metrics import MetricsRegistry
from repro.testing import faults as _faults

logger = logging.getLogger("repro.core.procpool")

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Sequence

    from repro.core.interned import InternedEngine, InternedSpace, PackedDescriptor
    from repro.core.probability import ExactConfig

#: Start method of the worker processes.  ``spawn`` gives every worker a
#: fresh interpreter: no inherited locks from the parent's threads (the
#: confidence server forks nothing while its event loop runs) and identical
#: behaviour across platforms, at the cost of a one-off per-worker startup
#: that the persistent pool amortises away.
START_METHOD = "spawn"


class SpaceSnapshot:
    """A picklable stand-in for an :class:`InternedSpace` in worker processes.

    Carries exactly the dense arrays packed evaluation needs — per-variable
    alternative ``weights`` plus the ``shift``/``mask`` packing geometry —
    and none of the variable/value objects, so it pickles in O(total
    alternatives) floats regardless of what the variables are.  Satisfies
    the domain-size-provider protocol of the variable-choice heuristics and
    the weight lookups of :meth:`InternedEngine.run`; it cannot intern new
    descriptors (workers only ever receive already-packed ones).

    ``generation`` tags the parent's space so workers know when a cached
    engine is stale.
    """

    __slots__ = ("generation", "shift", "mask", "weights")

    def __init__(
        self, generation: int, shift: int, mask: int, weights: list[list[float]]
    ) -> None:
        self.generation = generation
        self.shift = shift
        self.mask = mask
        self.weights = weights

    @classmethod
    def of_space(cls, space: "InternedSpace", generation: int) -> "SpaceSnapshot":
        return cls(generation, space.shift, space.mask, space.weights)

    def domain_size(self, variable_id: int) -> int:
        """Number of alternatives of the variable with the given id."""
        return len(self.weights[variable_id])

    def weight(self, packed: int) -> float:
        """``P({variable -> value})`` of a packed assignment."""
        return self.weights[packed >> self.shift][packed & self.mask]

    def __getstate__(self):
        return (self.generation, self.shift, self.mask, self.weights)

    def __setstate__(self, state) -> None:
        self.generation, self.shift, self.mask, self.weights = state

    def __repr__(self) -> str:
        return (
            f"SpaceSnapshot(generation={self.generation}, "
            f"variables={len(self.weights)})"
        )


#: Chunks handed to the pool per worker: smaller chunks let an idle worker
#: pick up remaining work while another grinds through a straggler, at the
#: price of a few more dispatches (each dispatch is one pickled task).
DISPATCH_FACTOR = 4


def chunk_components(
    components: "list[list[PackedDescriptor]]",
    workers: int,
    costs: "Sequence[int] | None" = None,
) -> "list[list[int]]":
    """Cost-ordered largest-first dispatch plan: batches of component *indices*.

    Components are assigned greedily, most expensive first, to the currently
    least-loaded batch (LPT scheduling) — ``costs[i]`` is component ``i``'s
    evaluation-cost estimate (see
    :func:`~repro.core.heuristics.component_dispatch_cost`; descriptor count
    is the fallback when no costs are given).  Up to
    ``workers × DISPATCH_FACTOR`` batches are built so stragglers stop
    serialising the pool, and the returned plan is ordered heaviest batch
    first, so the most expensive work is in flight before the tail.  Every
    batch is non-empty, the batches partition ``range(len(components))``
    exactly, and the plan is a pure function of ``(costs, workers)`` — the
    caller scatters per-index results back into input order, which keeps the
    merged output bit-identical to serial evaluation.
    """
    if not components:
        return []
    if costs is None:
        costs = [len(component) for component in components]
    count = min(len(components), max(1, workers) * DISPATCH_FACTOR)
    if count == 1:
        return [list(range(len(components)))]
    # Stable sort: equal-cost components keep input order, so the plan (and
    # with it worker memo warm-up order) is deterministic.
    order = sorted(range(len(components)), key=lambda i: (-costs[i], i))
    heap = [(0, batch_index) for batch_index in range(count)]
    batches: list[list[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for index in order:
        load, batch_index = heapq.heappop(heap)
        batches[batch_index].append(index)
        load += costs[index]
        loads[batch_index] = load
        heapq.heappush(heap, (load, batch_index))
    plan = [batch for batch in batches if batch]
    plan.sort(key=lambda batch: (-sum(costs[i] for i in batch), batch[0]))
    return plan


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-process engine cache: rebuilt whenever a task carries a snapshot of a
#: different generation (the parent's interned space changed).
_worker_engine: "InternedEngine | None" = None
_worker_generation: int | None = None


def _compute_chunk(
    snapshot: SpaceSnapshot,
    config: "ExactConfig",
    components: "list[list[PackedDescriptor]]",
    max_calls: int | None,
    time_limit: float | None,
    fault: "_faults.Fault | None" = None,
    trace: bool = False,
) -> tuple[list[tuple[float, float]], dict]:
    """Worker task: evaluate components in order, one fresh budget each.

    Returns ``(entries, meta)``: one ``(value, seconds)`` entry per
    component so the parent can account worker busy time, plus a telemetry
    ``meta`` dict — a mergeable metrics snapshot of the per-component
    latency histogram recorded *in this process*
    (``repro_worker_component_seconds``), and, when ``trace`` is set,
    one finished remote span payload per component for the parent's tracer
    to adopt.  The per-worker engine persists across tasks of the same
    generation, so its memo cache warms up across the many components of
    one computation and across computations.  Each component re-arms a
    fresh budget — per-worker budget accounting.

    ``fault`` is the chaos-testing hook (the ``procpool.worker`` fault
    point): armed in the parent, shipped with the chunk, and executed here
    *inside the worker* — a ``kill`` fault SIGKILLs this process
    mid-computation, breaking the pool exactly the way a crashed worker
    does.  ``None`` in ordinary operation.
    """
    _faults.execute_in_worker(fault)
    global _worker_engine, _worker_generation
    engine = _worker_engine
    if engine is None or _worker_generation != snapshot.generation:
        from repro.core.interned import InternedEngine

        engine = InternedEngine(None, config, space=snapshot)
        _worker_engine = engine
        _worker_generation = snapshot.generation
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_worker_component_seconds")
    spans: list[dict] | None = [] if trace else None
    results = []
    for component in components:
        engine.reset_budget(Budget(max_calls, time_limit))
        before = engine.phase_counters() if trace else None
        started = time.perf_counter()
        value = engine.run(component)
        seconds = time.perf_counter() - started
        histogram.record(seconds)
        results.append((value, seconds))
        if spans is not None:
            after = engine.phase_counters()
            spans.append(
                {
                    "name": "worker_component",
                    "seconds": seconds,
                    "remote": True,
                    "attrs": {
                        "pid": os.getpid(),
                        "descriptors": len(component),
                        "frames": after["frames"] - before["frames"],
                        "memo_hits": after["memo_hits"] - before["memo_hits"],
                    },
                }
            )
    return results, {"metrics": registry.snapshot(), "spans": spans}


def _warm_up_worker() -> bool:
    """Load the engine modules, then hold this worker while its siblings spawn.

    :func:`_compute_chunk` imports the engine lazily; a warm-up that skipped
    it would leave that import cost to the first cold query on every worker.
    """
    import repro.core.interned  # noqa: F401

    time.sleep(0.05)
    return True


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ProcessPoolBackend:
    """A persistent pool of engine-owning worker processes.

    One backend belongs to one :class:`~repro.core.engine.EngineHandle`; the
    handle serialises snapshot re-arms through :meth:`compute`, but
    :meth:`compute` itself may be called from several threads at once (the
    confidence server's pool threads) — ``ProcessPoolExecutor`` is
    thread-safe, which is exactly what lets distinct cold queries overlap
    across worker processes.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"process pool needs at least 1 worker, got {workers}")
        self.workers = workers
        self._context = multiprocessing.get_context(START_METHOD)
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        self._lock = threading.Lock()
        self._generation = 0
        self._space: "InternedSpace | None" = None
        self._snapshot: SpaceSnapshot | None = None
        self.tasks_dispatched = 0
        self.components_dispatched = 0
        #: Chunks resubmitted to a rebuilt pool after a mid-computation break.
        self.chunk_retries = 0
        #: Pools discarded because they broke (each is rebuilt on demand).
        self.pools_broken = 0

    # -- lifecycle -------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                # A computation racing close() must not spawn a fresh pool
                # nobody would ever shut down again.
                raise WorkerPoolError("the process pool backend is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=self._context
                )
            return self._executor

    def _discard_executor(self, executor: ProcessPoolExecutor | None = None) -> None:
        """Drop the current pool (or ``executor``, if it is still current).

        Passing the executor a computation actually used makes concurrent
        breakage safe: when several threads hit the same broken pool, only
        the first discard wins — the others must not tear down the *fresh*
        pool a racing thread already rebuilt for its retry.
        """
        with self._lock:
            if executor is not None and self._executor is not executor:
                return
            current, self._executor = self._executor, None
            if current is not None:
                self.pools_broken += 1
        if current is not None:
            logger.warning(
                "worker pool broke (%d so far); discarding, next computation "
                "rebuilds it",
                self.pools_broken,
            )
            current.shutdown(wait=False, cancel_futures=True)

    def warm_up(self) -> None:
        """Spawn all workers now instead of on the first computation.

        Submits one short sleeper per worker; because each sleeper occupies
        a worker, the pool is forced to start its full complement, and each
        worker imports the engine modules on the way.  Servers call this at
        startup so the first client pays neither spawn nor import latency.
        """
        executor = self._ensure_executor()
        futures = [executor.submit(_warm_up_worker) for _ in range(self.workers)]
        for future in futures:
            future.result()

    def invalidate(self) -> None:
        """Force a new snapshot generation on the next computation.

        Workers rebuild their cached engines (dropping their memos) when the
        generation changes; the engine handle calls this whenever its own
        engine is retired, so "clear the cache" reaches every process.
        """
        with self._lock:
            self._space = None
            self._snapshot = None

    def close(self) -> None:
        """Shut the pool down for good.

        A :meth:`compute` racing the shutdown raises
        :class:`~repro.errors.WorkerPoolError` instead of silently spawning
        a replacement pool that nothing would ever reap.  (A *broken* pool,
        by contrast, is only discarded — the next computation rebuilds it.)
        """
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    # -- computation -----------------------------------------------------
    def snapshot_of(self, space: "InternedSpace") -> SpaceSnapshot:
        """The (cached) picklable snapshot of the parent's interned space.

        A new generation is minted whenever the space object changes — the
        world table was mutated or conditioned and the engine rebuilt — which
        tells workers to rebuild their cached engines.
        """
        with self._lock:
            snapshot = self._snapshot
            if self._space is not space or snapshot is None:
                self._generation += 1
                self._space = space
                snapshot = SpaceSnapshot.of_space(space, self._generation)
                self._snapshot = snapshot
            return snapshot

    def compute(
        self,
        space: "InternedSpace",
        config: "ExactConfig",
        components: "list[list[PackedDescriptor]]",
        max_calls: int | None,
        time_limit: float | None,
        *,
        metrics: "MetricsRegistry | None" = None,
        spans: "list[dict] | None" = None,
    ) -> list[tuple[float, float]]:
        """``(probability, worker_seconds)`` per component, in component order.

        ``metrics`` (when given) receives each worker's merged histogram
        snapshot — the parent-side fold of per-worker
        ``repro_worker_component_seconds`` recordings.  Passing a ``spans``
        list asks workers to emit one finished remote span payload per
        component; they are appended here, in dispatch order, for the
        caller's tracer to adopt.

        Components are dispatched cost-ordered, largest first, in small
        chunks (:func:`chunk_components` with the
        :func:`~repro.core.heuristics.component_dispatch_cost` estimate), so
        one expensive straggler no longer serialises the pool behind it;
        per-index scattering restores input component order, keeping the
        merged result bit-identical to serial evaluation.  A multi-chunk
        dispatch overlaps with other threads' concurrent ``compute`` calls.
        Worker-raised Python exceptions re-raise here with their own types
        (the first failing chunk in dispatch order wins).

        A pool broken mid-computation (worker killed, segfault) does *not*
        fail the computation outright: the broken pool is discarded, a fresh
        one is built, and exactly the chunks whose results were lost are
        resubmitted once — safe because tasks are pure and the memo lives in
        the parent, and bit-identical because the retried chunks recompute
        the same floats.  Only a retry that breaks the pool *again* raises
        :class:`~repro.errors.WorkerPoolError`.
        """
        if not components:
            return []
        snapshot = self.snapshot_of(space)
        costs = [
            component_dispatch_cost(component, snapshot) for component in components
        ]
        plan = chunk_components(components, self.workers, costs)
        chunks = [[components[index] for index in batch] for batch in plan]
        trace = spans is not None
        fault = _faults.take("procpool.worker") if _faults.INJECTOR.armed else None
        outcomes, broken = self._run_chunks(
            snapshot, config, chunks, max_calls, time_limit, fault, trace
        )
        lost = [index for index, outcome in enumerate(outcomes) if outcome is None]
        if lost:
            # The retry is deliberately single-shot: a pool that breaks twice
            # in one computation points at a systematic killer (OOM, a
            # poisonous input) that blind persistence would only amplify.
            self.chunk_retries += len(lost)
            retried, broken_again = self._run_chunks(
                snapshot,
                config,
                [chunks[index] for index in lost],
                max_calls,
                time_limit,
                None,
                trace,
            )
            for index, outcome in zip(lost, retried):
                outcomes[index] = outcome
            if any(outcome is None for outcome in outcomes):
                raise WorkerPoolError(
                    f"process pool broke again while retrying {len(lost)} lost "
                    f"chunk(s): {broken_again or broken}"
                ) from (broken_again or broken)
        error = next(
            (outcome for outcome in outcomes if isinstance(outcome, BaseException)),
            None,
        )
        if error is not None:
            raise error
        self.tasks_dispatched += len(chunks)
        self.components_dispatched += len(components)
        results: list = [None] * len(components)
        for batch, outcome in zip(plan, outcomes):
            entries, meta = outcome
            for index, entry in zip(batch, entries):
                results[index] = entry
            if metrics is not None:
                metrics.merge(meta.get("metrics") or {})
            if spans is not None:
                spans.extend(meta.get("spans") or ())
        return results

    def _run_chunks(
        self,
        snapshot: SpaceSnapshot,
        config: "ExactConfig",
        chunks: "list[list[list[PackedDescriptor]]]",
        max_calls: int | None,
        time_limit: float | None,
        fault: "_faults.Fault | None",
        trace: bool = False,
    ) -> tuple[list, BaseException | None]:
        """Dispatch chunks on the current pool; one outcome slot per chunk.

        Each slot is the chunk's ``(entries, meta)`` pair, the worker-raised
        exception, or ``None`` when the pool broke before the chunk's result
        arrived (the caller decides whether to retry those).  A break
        discards the executor (identity-checked, so concurrent computations
        on the same dead pool discard it exactly once) and is returned for
        exception chaining.  ``fault`` rides with the first chunk only —
        chaos tests kill exactly one worker per armed charge.
        """
        executor = self._ensure_executor()
        futures: list = []
        broken: BaseException | None = None
        for index, chunk in enumerate(chunks):
            try:
                futures.append(
                    executor.submit(
                        _compute_chunk,
                        snapshot,
                        config,
                        chunk,
                        max_calls,
                        time_limit,
                        fault if index == 0 else None,
                        trace,
                    )
                )
            except BrokenExecutor as error:
                broken = broken or error
                futures.append(None)
        outcomes: list = []
        for future in futures:
            if future is None:
                outcomes.append(None)
                continue
            try:
                outcomes.append(future.result())
            except BrokenExecutor as error:
                broken = broken or error
                outcomes.append(None)
            except Exception as error:  # noqa: BLE001 - surfaced by the caller
                outcomes.append(error)
        if broken is not None:
            self._discard_executor(executor)
        return outcomes, broken

    def __repr__(self) -> str:
        state = "idle" if self._executor is None else "running"
        return (
            f"ProcessPoolBackend({self.workers} workers, {state}, "
            f"{self.components_dispatched} components dispatched)"
        )
