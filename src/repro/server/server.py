"""The asyncio TCP confidence server.

A :class:`ConfidenceServer` owns one
:class:`~repro.db.database.ProbabilisticDatabase`, one
:class:`~repro.db.session.Session` over it and ``pool_size`` threads that run
the session's uncached computations, and serves the wire protocol of
:mod:`repro.server.protocol` to any number of concurrent connections.  All
connections share the session's engine handle — one interned id space and
one memo cache — so a sub-problem solved for one client is a memo hit for
every other client (the whole point of server mode over per-process
sessions).

Request handling is deliberately forgiving: malformed JSON, oversized frames,
unsupported protocol versions and unknown operations are answered with error
frames on the same connection instead of dropping it, and any
:class:`~repro.errors.ReproError` raised by a computation travels back as a
structured error frame with a stable code.  Only transport-level failures
(EOF, truncated frames) close a connection — and never the server.

Serving is fault-tolerant (since protocol v3):

* **admission control** — computation-bearing operations pass a bounded
  admission queue (:class:`_AdmissionQueue`): at most ``max_inflight``
  compute concurrently, at most ``max_queue`` wait, and anything beyond that
  is *shed* with an ``overloaded`` error carrying a ``retry_after_ms``
  estimate.  ``ping`` / ``health`` / ``stats`` bypass admission, so the
  server stays observable while saturated;
* **deadlines** — a request frame's ``deadline_ms`` bounds its whole server
  residency.  The admission wait is cut short when the deadline would pass
  in the queue (``deadline-exceeded``), and for ``confidence_many`` and
  ``confidence_batch`` the *remaining* time is folded into each session
  request, where an overrunning exact computation degrades to a Karp-Luby
  (ε, δ) answer instead of erroring (see
  :meth:`repro.db.session.Session.query`);
* **graceful drain** — :meth:`stop` stops accepting, lets in-flight requests
  finish (and answer) for a grace period, sheds newly arriving work as
  ``overloaded``, and only then force-closes connections.

Typical embedded use::

    server = ConfidenceServer(database, port=0)
    await server.start()
    host, port = server.address
    ...
    await server.stop()

``python -m repro.server`` wraps this in a CLI with workload bootstrapping
and graceful signal-driven shutdown.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.probability import ExactConfig
from repro.db.api import target_from_payload
from repro.db.session import ConfidenceRequest, Session
from repro.obs.metrics import MetricsRegistry, merge_snapshots, render_prometheus
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    QueryError,
    ReproError,
)
from repro.server import protocol
from repro.testing import faults as _faults
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    error_frame,
    ok_frame,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import ProbabilisticDatabase
    from repro.db.session import ConfidenceResult

logger = logging.getLogger("repro.server")

#: Slow requests go here as one JSON object per line (``--slow-query-ms``).
slow_query_logger = logging.getLogger("repro.server.slowquery")

#: ConfidenceRequest option names accepted in ``confidence_batch`` frames.
_BATCH_OPTIONS = (
    "epsilon", "delta", "seed", "max_calls", "time_limit", "hybrid_scale", "deadline_ms"
)

#: Operations that pass admission control (they occupy a pool thread and
#: burn CPU).  ``ping`` / ``health`` / ``stats`` bypass it by design: a
#: saturated or draining server must stay observable.
_ADMITTED_OPS = frozenset(
    {
        "confidence_many",
        "confidence_batch",
        "what_if",
        "execute",
        "execute_script",
    }
)

#: Default drain grace of :meth:`ConfidenceServer.stop`, in seconds.
DEFAULT_GRACE = 5.0


class _AdmissionQueue:
    """Bounded admission with load shedding and a service-time estimate.

    At most ``max_inflight`` admissions run concurrently; at most
    ``max_queue`` callers wait for a slot.  A caller beyond both bounds is
    shed immediately — an :class:`~repro.errors.OverloadedError` carrying
    ``retry_after_ms``, an EWMA-based estimate of when a slot frees up
    (mean service time × backlog ÷ parallelism, clamped to [50 ms, 5 s]).
    Shedding at the door instead of queueing unboundedly keeps latency
    honest: a client is told *now* to come back later rather than timing
    out at the end of a hopeless queue.
    """

    #: EWMA smoothing factor for the per-request service time.
    _ALPHA = 0.2

    def __init__(self, max_inflight: int, max_queue: int) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be at least 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be non-negative, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._slots = asyncio.Semaphore(max_inflight)
        self._waiting = 0
        self._ewma_seconds = 0.05  # optimistic prior; converges per request
        self.admitted_total = 0
        self.shed_total = 0

    @property
    def waiting(self) -> int:
        """Callers currently queued for an admission slot."""
        return self._waiting

    def retry_after_ms(self) -> int:
        """When a shed client should plausibly retry, in milliseconds."""
        backlog = self._waiting + 1
        estimate = 1000.0 * self._ewma_seconds * backlog / self.max_inflight
        return int(min(5000.0, max(50.0, estimate)))

    def shed(self, message: str) -> None:
        """Refuse a request with a typed, retryable ``overloaded`` error."""
        self.shed_total += 1
        logger.debug(
            "shed request (%d shed so far, %d waiting): %s",
            self.shed_total, self._waiting, message,
        )
        raise OverloadedError(message, retry_after_ms=self.retry_after_ms())

    @contextlib.asynccontextmanager
    async def admit(self, timeout: float | None = None):
        """Hold one admission slot; shed or time out instead of waiting forever.

        ``timeout`` bounds the queue wait (a request's remaining deadline);
        an expired wait raises :class:`~repro.errors.DeadlineExceededError`.
        The slot's service time feeds the EWMA either way — even a degraded
        answer is signal about how busy the server is.
        """
        if self._slots.locked() and self._waiting >= self.max_queue:
            self.shed(
                f"admission queue is full ({self._waiting} waiting, "
                f"{self.max_inflight} in flight)"
            )
        self._waiting += 1
        try:
            if timeout is None:
                await self._slots.acquire()
            else:
                try:
                    await asyncio.wait_for(self._slots.acquire(), timeout)
                except TimeoutError:
                    raise DeadlineExceededError(
                        f"deadline expired after waiting {timeout:.3f}s for "
                        f"admission",
                        deadline_ms=timeout * 1000.0,
                    ) from None
        finally:
            self._waiting -= 1
        self.admitted_total += 1
        started = time.monotonic()
        try:
            yield
        finally:
            elapsed = time.monotonic() - started
            self._ewma_seconds += self._ALPHA * (elapsed - self._ewma_seconds)
            self._slots.release()


class _ReadWriteGate:
    """An asyncio readers-writer gate for database-mutating requests.

    Confidence reads run shared; SQL containing an ``assert`` statement runs
    exclusive, so conditioning never swaps the world table and relations out
    from under a concurrent read (the two-assignment swap in
    ``ProbabilisticDatabase.assert_condition`` is not atomic).
    """

    def __init__(self) -> None:
        self._condition = asyncio.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    async def __aenter__(self) -> None:  # shared (read) side
        async with self._condition:
            # Writer preference: once a writer queues, new readers wait, so
            # sustained read traffic cannot starve conditioning forever.
            while self._writing or self._writers_waiting:
                await self._condition.wait()
            self._readers += 1

    async def __aexit__(self, *exc_info) -> None:
        async with self._condition:
            self._readers -= 1
            if not self._readers:
                self._condition.notify_all()

    @contextlib.asynccontextmanager
    async def exclusive(self):
        async with self._condition:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    await self._condition.wait()
                self._writing = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            async with self._condition:
                self._writing = False
                self._condition.notify_all()


class ConfidenceServer:
    """One shared probabilistic database behind a TCP wire protocol."""

    def __init__(
        self,
        database: "ProbabilisticDatabase",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = 4,
        memo_limit: int | None = None,
        workers: int | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_inflight: int | None = None,
        max_queue: int | None = None,
        metrics_port: int | None = None,
        slow_query_ms: float | None = None,
        shard_info: dict | None = None,
    ) -> None:
        self.database = database
        self._host = host
        self._port = port
        self._max_frame_bytes = max_frame_bytes
        self._metrics_port = metrics_port
        self._slow_query_ms = slow_query_ms
        #: Cluster membership, when this server serves one shard of a
        #: partitioned database: ``{"index": int, "shards": int, "map": dict}``
        #: with ``map`` a :class:`~repro.cluster.partition.ShardMap` payload.
        #: ``None`` on a stand-alone server — ``shard_map`` then answers
        #: ``{"sharded": false}``.
        self._shard_info = shard_info
        #: Server-side instruments (per-op latency histograms, request and
        #: error counters, pressure gauges).  The ``metrics`` op and the HTTP
        #: exposition endpoint merge this with the engine handle's registry.
        self.metrics = MetricsRegistry()
        # pool_size threads run the session's uncached computations.
        self._pool_size = pool_size
        self._threads = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-server"
        )
        # workers=N is the scale-out mode: cold exact computations from every
        # connection fan out across a shared process pool while the memo and
        # the interned space stay in this (parent) process.
        self._session = Session(
            database, ExactConfig(memo_limit=memo_limit), workers=workers
        )
        self._gate = _ReadWriteGate()
        # Admission defaults follow the pool: more in-flight computations
        # than pool threads would only queue inside the executor, invisible
        # to shedding and deadlines.
        self._admission = _AdmissionQueue(
            max_inflight if max_inflight is not None else pool_size,
            max_queue if max_queue is not None else 4 * pool_size,
        )
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._started = time.monotonic()
        self._connections_total = 0
        self._requests_total = 0
        self._errors_total = 0
        self._deadline_exceeded_total = 0
        self._inline_answers_total = 0
        self._draining = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``.

        With ``workers=N`` the process pool is warmed up first (in a
        thread, so the loop stays responsive), sparing the first client the
        process-spawn latency.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        await asyncio.to_thread(self._session.handle.warm_up)
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        if self._metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._serve_metrics_http, self._host, self._metrics_port
            )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` to the real port)."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The HTTP exposition endpoint's ``(host, port)``, if enabled."""
        if self._metrics_server is None:
            return None
        sock = self._metrics_server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def session(self) -> Session:
        """The shared session (exposed for bootstrap scripts and tests)."""
        return self._session

    async def _run(self, function, /, *args, **kwargs):
        """Run ``function`` on a pool thread, keeping the event loop free."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._threads, functools.partial(function, *args, **kwargs)
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI wraps this with signal handling)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self, *, grace: float = DEFAULT_GRACE) -> None:
        """Drain, then stop: in-flight requests get ``grace`` seconds to answer.

        The listener closes immediately and newly arriving computation
        frames on existing connections are shed as ``overloaded``; requests
        already being answered keep running and their responses are written
        before their connections close.  Past the grace period (or with
        ``grace=0``) remaining connections are force-closed.  An idle server
        stops immediately — the drain wait only happens when something is
        actually in flight.

        Never blocks on client computations beyond the grace: the thread
        pool is shut down without joining its threads, so a still-running
        unbounded exact computation cannot hold up shutdown — its connection
        is gone and its thread finishes in the background (interpreter exit
        still joins it; give server-facing requests budgets or deadlines to
        bound that tail).
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if grace > 0 and self._inflight:
            with contextlib.suppress(TimeoutError):
                await asyncio.wait_for(self._idle.wait(), grace)
        for writer in list(self._writers):
            writer.close()
        for writer in list(self._writers):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # already torn down
                pass
        self._writers.clear()
        self._threads.shutdown(wait=False, cancel_futures=True)
        self._session.close()

    async def bootstrap(self, sql: str) -> None:
        """Run a ``;``-separated SQL script through the shared session.

        Used by the CLI's ``--load`` flag *before* :meth:`start`, so no
        client can observe the pre-bootstrap database: conditioning asserts
        shape the database, ``conf()`` queries pre-warm the memo cache.
        """
        async with self._gate.exclusive():
            await self._run(self._session.execute_script, sql)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections_total += 1
        self._writers.add(writer)
        try:
            while True:
                try:
                    frame = await protocol.read_frame(
                        reader, max_frame_bytes=self._max_frame_bytes
                    )
                except ProtocolError as error:
                    if error.code == "connection-closed":
                        break  # truncated stream: nothing sensible to answer
                    # Oversized payloads were drained and malformed bodies
                    # consumed whole; the stream is still synchronised, so
                    # answer with an error frame and carry on.
                    await self._send_error(writer, None, error.code, str(error))
                    continue
                if frame is None:
                    break  # clean EOF
                # The response write is inside the in-flight window: a
                # draining stop() waits until the answer is on the wire,
                # not merely computed.
                self._inflight += 1
                self._idle.clear()
                try:
                    response = await self._respond(frame)
                    try:
                        await protocol.write_frame(
                            writer, response, max_frame_bytes=self._max_frame_bytes
                        )
                    except ProtocolError as error:
                        # The *response* outgrew the frame bound (e.g. a huge
                        # SQL answer): replace it with a small error frame
                        # instead of dropping the connection.
                        await self._send_error(
                            writer, response.get("id"), error.code, str(error)
                        )
                finally:
                    self._inflight -= 1
                    if not self._inflight:
                        self._idle.set()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _error(
        self, id: object, code: str, message: str, detail: dict | None = None
    ) -> dict:
        """One error frame, counted once in the stats and in the registry."""
        self._errors_total += 1
        self.metrics.counter("repro_server_errors_total", code=code).inc()
        return error_frame(id, code, message, detail)

    async def _send_error(
        self, writer: asyncio.StreamWriter, id: object, code: str, message: str
    ) -> None:
        await protocol.write_frame(
            writer, self._error(id, code, message),
            max_frame_bytes=self._max_frame_bytes,
        )

    async def _respond(self, frame: dict) -> dict:
        """Map one request frame onto one response frame (never raises)."""
        id = frame.get("id")
        if not (id is None or isinstance(id, (int, str))):
            id = None
        version = frame.get("v")
        if version != PROTOCOL_VERSION:
            return self._error(
                id,
                "unsupported-version",
                f"this server speaks protocol version {PROTOCOL_VERSION}, "
                f"got {version!r}",
            )
        op = frame.get("op")
        if op not in protocol.OPS:
            return self._error(
                id,
                "unknown-op",
                f"unknown operation {op!r}; known: {', '.join(protocol.OPS)}",
            )
        args = frame.get("args") or {}
        if not isinstance(args, dict):
            return self._error(id, "malformed-frame", "args must be an object")
        deadline_ms = frame.get("deadline_ms")
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or deadline_ms <= 0
        ):
            return self._error(
                id,
                "malformed-frame",
                f"deadline_ms must be a positive number of milliseconds, "
                f"got {deadline_ms!r}",
            )
        deadline = (
            time.monotonic() + deadline_ms / 1000.0 if deadline_ms is not None else None
        )
        self._requests_total += 1
        started = time.monotonic()
        try:
            result = await self._dispatch(op, args, deadline)
        except ReproError as error:
            if isinstance(error, DeadlineExceededError):
                self._deadline_exceeded_total += 1
            return self._error(
                id, protocol.error_code(error), str(error), protocol.error_detail(error)
            )
        except (KeyError, TypeError, ValueError) as error:
            message = f"bad arguments for {op}: {error}"
            return self._error(id, "malformed-frame", message)
        except Exception as error:  # noqa: BLE001 - a request must never kill the server
            logger.exception("internal error answering %s", op)
            return self._error(id, "internal", f"{type(error).__name__}: {error}")
        finally:
            elapsed = time.monotonic() - started
            self.metrics.histogram("repro_server_op_seconds", op=op).record(elapsed)
            self.metrics.counter("repro_server_requests_total", op=op).inc()
        return ok_frame(id, result)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def _dispatch(
        self, op: str, args: dict, deadline: float | None = None
    ) -> object:
        """Route one request, through admission control for computation ops.

        ``deadline`` is the request's absolute answer-by time
        (``time.monotonic()`` clock) or ``None``.  It bounds the admission
        wait; whatever remains after admission is folded into the session
        request (see :meth:`_admitted`).
        """
        if op == "ping":
            return {"pong": True, "protocol": PROTOCOL_VERSION}
        if op == "health":
            return self._health()
        if op == "metrics":
            # Lock-free like ``health``: metrics must stay scrapeable while
            # the gate is held exclusively or the admission queue is full.
            return self._metrics_payload()
        if op == "shard_map":
            # Lock-free: the shard map is immutable for the server's lifetime
            # and a cluster coordinator bootstraps from it before any
            # computation is admitted.
            if self._shard_info is None:
                return {"sharded": False}
            return {
                "sharded": True,
                "shard": self._shard_info["index"],
                "shards": self._shard_info["shards"],
                "map": self._shard_info["map"],
            }
        if op == "stats":
            # Shared gate: the database fields of the snapshot must not read
            # a half-swapped database during an exclusive assert.
            async with self._gate:
                return self._stats()
        assert op in _ADMITTED_OPS, f"unreachable op {op!r}"
        if self._draining:
            self._admission.shed("server is draining; no new work is admitted")
        timeout = None
        if deadline is not None:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise DeadlineExceededError(
                    "deadline already expired on arrival", deadline_ms=0.0
                )
        async with self._admission.admit(timeout):
            return await self._admitted(op, args, deadline)

    async def _admitted(self, op: str, args: dict, deadline: float | None) -> object:
        """Answer an admitted computation op, deadline folded into the request.

        ``confidence_many`` requests — and every group of a
        ``confidence_batch`` — carry the *remaining* milliseconds as
        :attr:`~repro.db.session.ConfidenceRequest.deadline_ms` (tightening
        any client-set value), so an overrunning exact computation degrades
        to a Karp-Luby answer inside the deadline instead of erroring.  For
        ``what_if`` and SQL execution the deadline bounds the admission wait
        only — their computations have no mid-flight degradation path.

        The ``server.dispatch`` fault point sits at the top, *inside* the
        admission slot: a ``delay`` fault holds the request open — in flight
        for drain purposes, occupying capacity for shedding tests — without
        burning CPU.
        """
        if _faults.INJECTOR.armed:
            fault = _faults.INJECTOR.take("server.dispatch")
            if fault is not None and fault.seconds > 0.0:
                await asyncio.sleep(fault.seconds)
        remaining_ms = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceededError(
                    "deadline expired in the admission queue", deadline_ms=0.0
                )
            remaining_ms = remaining * 1000.0
        if op == "confidence_many":
            requests = [
                self._fold_deadline(request, remaining_ms)
                for request in self._many_requests(args)
            ]
            async with self._gate:
                results = await self._confidence_many(requests)
            return {"results": [result.to_payload() for result in results]}
        if op == "confidence_batch":
            async with self._gate:
                return await self._confidence_batch(args, remaining_ms)
        if op == "what_if":
            async with self._gate:
                return await self._what_if(args)
        if op == "execute":
            sql = self._sql_of(args)
            async with self._exclusion_for(sql):
                result = await self._run(self._session.execute, sql)
            return protocol.query_result_to_payload(result)
        if op == "execute_script":
            sql = self._sql_of(args)
            async with self._exclusion_for(sql):
                results = await self._run(self._session.execute_script, sql)
            return [protocol.query_result_to_payload(result) for result in results]
        raise AssertionError(f"unreachable op {op!r}")  # pragma: no cover

    @staticmethod
    def _fold_deadline(
        request: ConfidenceRequest, remaining_ms: float | None
    ) -> ConfidenceRequest:
        """Tighten a request's ``deadline_ms`` to the frame's remaining time."""
        if remaining_ms is None:
            return request
        if request.deadline_ms is not None and request.deadline_ms <= remaining_ms:
            return request
        return replace(request, deadline_ms=remaining_ms)

    def _health(self) -> dict:
        """The ``health`` payload: liveness plus admission pressure, lock-free.

        Deliberately reads no database state and takes no gate — health
        checks must answer even while an exclusive ``assert`` or a saturated
        admission queue would stall a ``stats`` frame.
        """
        payload = {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "inflight": self._inflight,
            "queued": self._admission.waiting,
            "max_inflight": self._admission.max_inflight,
            "max_queue": self._admission.max_queue,
            "uptime_seconds": time.monotonic() - self._started,
        }
        if self._shard_info is not None:
            payload["shard"] = {
                "index": self._shard_info["index"],
                "shards": self._shard_info["shards"],
            }
        return payload

    def _log_slow_query(self, started: float, result: "ConfidenceResult") -> None:
        """Emit one structured JSON line when a request overran the threshold.

        The line carries the request's span tree (``result.trace``, forced
        server-side when a threshold is armed), so a slow query is diagnosable
        from the log alone: which phase — decompose, dispatch, worker
        components, merge — ate the time.
        """
        if self._slow_query_ms is None:
            return
        elapsed_ms = (time.monotonic() - started) * 1000.0
        if elapsed_ms < self._slow_query_ms:
            return
        record = {
            "event": "slow_query",
            "op": "confidence_many",
            "ms": round(elapsed_ms, 3),
            "threshold_ms": self._slow_query_ms,
            "method": result.method,
            "trace": result.trace,
        }
        slow_query_logger.warning(json.dumps(record, sort_keys=True))

    def _metrics_payload(self) -> dict:
        """The ``metrics`` payload: one merged registry snapshot, lock-free.

        Point-in-time pressure (queue depth, in-flight, open connections,
        draining) is refreshed into gauges and the admission counters are
        mirrored into the registry at read time, then the server registry is
        merged with the shared engine handle's registry — which already
        contains the histograms merged back from process-pool workers.
        """
        registry = self.metrics
        registry.gauge("repro_server_queue_depth").set(self._admission.waiting)
        registry.gauge("repro_server_inflight").set(self._inflight)
        registry.gauge("repro_server_connections_open").set(len(self._writers))
        registry.gauge("repro_server_draining").set(1.0 if self._draining else 0.0)
        registry.counter("repro_server_shed_total").set(self._admission.shed_total)
        registry.counter("repro_server_admitted_total").set(
            self._admission.admitted_total
        )
        registry.counter("repro_server_deadline_exceeded_total").set(
            self._deadline_exceeded_total
        )
        registry.counter("repro_server_connections_total").set(
            self._connections_total
        )
        snapshot = merge_snapshots(
            registry.snapshot(), self._session.handle.metrics.snapshot()
        )
        return {"metrics": snapshot}

    async def _serve_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one HTTP/1.1 scrape on the ``--metrics-port`` listener.

        Hand-rolled on purpose — no HTTP dependency for a one-path,
        one-response-per-connection text endpoint.  ``GET /metrics`` answers
        Prometheus text exposition format; everything else is a 404.
        """
        try:
            request_line = await reader.readline()
            while True:  # drain headers; one request per connection
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1].partition("?")[0] if len(parts) >= 2 else ""
            if path in ("/metrics", "/"):
                body = render_prometheus(self._metrics_payload()["metrics"])
                status = "200 OK"
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                body = "not found\n"
                status = "404 Not Found"
                content_type = "text/plain; charset=utf-8"
            encoded = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(encoded)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("ascii")
                + encoded
            )
            await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    def _exclusion_for(self, sql: str):
        """The gate mode for a SQL request: exclusive iff it conditions.

        ``assert`` swaps the database's world table and relations (two
        non-atomic assignments); running it exclusively means no concurrent
        read can observe a half-swapped database.  Plain selects share the
        gate like confidence queries.
        """
        return self._gate.exclusive() if _mutates(sql) else self._gate

    @staticmethod
    def _many_requests(args: dict) -> list[ConfidenceRequest]:
        """Decode and validate the request list of a ``confidence_many`` frame."""
        unknown = set(args) - {"requests"}
        if unknown:
            raise QueryError(f"unknown confidence_many options {sorted(unknown)}")
        payloads = args.get("requests")
        if not isinstance(payloads, list):
            raise QueryError(
                f"confidence_many needs a list of requests, got {payloads!r}"
            )
        return [ConfidenceRequest.from_payload(payload) for payload in payloads]

    def _cached(self, request: ConfidenceRequest) -> "ConfidenceResult | None":
        """Answer from the warm engine on this (the loop) thread, and count it.

        ``None`` means the thread-pool route.  It runs where the hop would:
        inside the shared gate, after admission.
        """
        result = self._session.cached(request)
        if result is not None:
            self._inline_answers_total += 1
            self.metrics.counter(
                "repro_server_inline_answers_total", op="confidence_many"
            ).inc()
        return result

    async def _confidence_many(
        self, requests: list[ConfidenceRequest]
    ) -> list["ConfidenceResult"]:
        """Answer a batch: cached requests inline, the rest across the pool.

        Requests the warm engine answers in one frame are answered right here
        (:meth:`_cached`); each of the others runs on its own pool thread
        (:meth:`_compute`), so the batch pipelines up to ``pool_size``
        requests; with ``workers=N`` the engine handle releases its lock
        during worker computation, making the fan-out genuinely parallel
        across cores.  Results keep request order, and the whole batch shares
        the one gate acquisition of its frame.  A failing request fails the
        batch with its typed error — batches are all-or-nothing, like every
        other frame.  The error is only sent once *every* request of the
        batch has finished (the first failure in request order wins):
        answering early would leave the still-running requests occupying
        pool threads invisibly, stalling the client's own retries behind
        zombie computations.
        """
        results = [self._cached(request) for request in requests]
        misses = [index for index, result in enumerate(results) if result is None]
        answers = await asyncio.gather(
            *(self._compute(requests[index]) for index in misses),
            return_exceptions=True,
        )
        for index, answer in zip(misses, answers):
            if isinstance(answer, BaseException):
                raise answer
            results[index] = answer
        return results

    async def _compute(self, request: ConfidenceRequest) -> "ConfidenceResult":
        """Answer one uncached request on a pool thread, logged when slow.

        With a slow-query threshold armed the request is traced server-side
        even when the client did not ask: a slow query's log line should
        carry its span tree, and by the time we know it was slow it is too
        late to trace it.  The forced trace is stripped from the reply.
        """
        forced_trace = self._slow_query_ms is not None and not request.trace
        if forced_trace:
            request = replace(request, trace=True)
        started = time.monotonic()
        result = await self._run(self._session.query, request)
        self._log_slow_query(started, result)
        if forced_trace:
            result.trace = None
        return result

    async def _confidence_batch(self, args: dict, remaining_ms: float | None) -> dict:
        relation = args.get("relation")
        if not isinstance(relation, str):
            raise QueryError(
                f"confidence_batch needs a relation name, got {relation!r}"
            )
        unknown = set(args) - {"relation", "method", *_BATCH_OPTIONS}
        if unknown:
            # A misspelled option (say max_call) must error like the local
            # API would, not silently run without the budget it asked for.
            raise QueryError(f"unknown confidence_batch options {sorted(unknown)}")
        options = {
            name: args[name]
            for name in _BATCH_OPTIONS
            if args.get(name) is not None
        }
        if remaining_ms is not None:
            options["deadline_ms"] = min(
                options.get("deadline_ms", remaining_ms), remaining_ms
            )
        rows = await self._run(
            self._session.confidence_batch,
            relation,
            args.get("method", "exact"),
            **options,
        )
        return {
            "rows": [
                {"values": list(row.values), "confidence": row.confidence}
                for row in rows
            ]
        }

    async def _what_if(self, args: dict) -> dict:
        """Answer a ``what_if`` frame: one compiled sweep, many points.

        The target ws-set compiles once into a lineage circuit (cached on
        the shared engine handle, so repeated sweeps over the same lineage
        skip even the compile) and every probability point is a circuit
        re-evaluation — no re-decomposition, no per-point frames.
        """
        unknown = set(args) - {"target", "variable", "value", "ps"}
        if unknown:
            raise QueryError(f"unknown what_if options {sorted(unknown)}")
        if "target" not in args:
            raise QueryError("what_if needs a target")
        if "variable" not in args:
            raise QueryError("what_if needs a variable")
        ps = args.get("ps")
        if (
            not isinstance(ps, list)
            or not ps
            or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in ps)
        ):
            raise QueryError(
                f"what_if needs a non-empty list of probability points, got {ps!r}"
            )
        target = target_from_payload(args["target"])
        values = await self._run(
            self._session.what_if, target, args["variable"], ps, value=args.get("value")
        )
        return {"values": values, "points": len(values)}

    def _stats(self) -> dict:
        return {
            "engine": self._session.statistics().as_dict(),
            "server": {
                "protocol": PROTOCOL_VERSION,
                "pool_size": self._pool_size,
                "connections_total": self._connections_total,
                "connections_open": len(self._writers),
                "requests_total": self._requests_total,
                "errors_total": self._errors_total,
                "uptime_seconds": time.monotonic() - self._started,
                "relations": list(self.database.relation_names),
                "variables": len(self.database.world_table),
                "draining": self._draining,
                "inflight": self._inflight,
                "queued": self._admission.waiting,
                "max_inflight": self._admission.max_inflight,
                "max_queue": self._admission.max_queue,
                "admitted_total": self._admission.admitted_total,
                "shed_total": self._admission.shed_total,
                "deadline_exceeded_total": self._deadline_exceeded_total,
                "inline_answers_total": self._inline_answers_total,
            },
        }

    @staticmethod
    def _sql_of(args: dict) -> str:
        sql = args.get("sql")
        if not isinstance(sql, str):
            raise QueryError(f"execute needs a SQL string, got {sql!r}")
        return sql

    def __repr__(self) -> str:
        state = "stopped" if self._server is None else "%s:%s" % self.address
        return f"ConfidenceServer({state}, pool={self._pool_size})"


def _mutates(sql: str) -> bool:
    """True iff any statement of the (possibly ``;``-separated) SQL conditions."""
    from repro.sql.executor import split_statements

    return any(
        statement.lstrip().lower().startswith("assert")
        for statement in split_statements(sql)
    )
