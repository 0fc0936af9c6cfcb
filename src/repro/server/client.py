"""Client library for the confidence server: the session API over a socket.

:class:`ServerSession` (blocking) and :class:`AsyncServerSession` (asyncio)
mirror the local :class:`~repro.db.session.Session` /
:class:`~repro.db.session.AsyncSession` surface — ``confidence``, ``query``,
``confidence_many``, ``confidence_batch``, ``what_if``, ``certain_tuples``,
``possible_tuples``, ``execute``, ``execute_script``, ``statistics`` — so
code written against a local session runs unchanged against a socket::

    with connect("127.0.0.1", 2008) as session:
        result = session.confidence("R", method="hybrid", seed=7)
        rows = session.confidence_batch("R")
        answer = session.execute("select SSN, conf() from R")

Results come back as the same dataclasses the local API returns
(:class:`~repro.db.session.ConfidenceResult`,
:class:`~repro.db.confidence.ConfidenceRow`,
:class:`~repro.sql.executor.QueryResult`), and error frames re-raise the
matching :mod:`repro.errors` exception locally (a remote budget overrun
raises :class:`~repro.errors.BudgetExceededError` here).

Both clients are strictly request/response per connection; open several
connections for overlapping requests (that is exactly what the server's
pool threads are for) — or batch them: ``confidence_many`` ships all its
targets in one frame and the *server* fans them out across its pool, which
both removes the per-request round trip and, with a process-pool server,
runs the batch across cores.

The blocking client is fault-tolerant (protocol v3):

* a :class:`RetryPolicy` retries failed *idempotent* operations with
  exponential backoff and jitter, reconnecting transparently when the
  connection dropped.  Only operations in
  :data:`repro.server.protocol.IDEMPOTENT_OPS` ever retry — ``execute`` /
  ``execute_script`` can condition the database, and resending one after an
  ambiguous failure could apply it twice;
* ``request_timeout`` bounds each response wait, raising
  :class:`~repro.errors.RequestTimeoutError` instead of hanging forever on a
  wedged server (the connection is closed — the stream is desynchronised —
  and reopened on the next call);
* ``deadline_ms`` (a :class:`~repro.db.session.ConfidenceRequest` option) is
  lifted onto the wire frame, where the server bounds queueing and degrades
  an overrunning exact computation to a Karp-Luby answer;
* :meth:`ServerSession.health` reads the server's admission pressure without
  touching the database or its locks.

:class:`AsyncServerSession` supports ``request_timeout``, deadlines and
``health`` but deliberately not automatic retry: an asyncio caller composes
its own retry loops (and cancellation) more naturally than a built-in policy
could.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.engine import EngineStats
from repro.db.confidence import ConfidenceRow
from repro.db.api import target_to_payload
from repro.db.session import ConfidenceRequest, ConfidenceResult
from repro.errors import (
    OverloadedError,
    ProtocolError,
    RequestTimeoutError,
    WorkerPoolError,
)
from repro.server import protocol
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_PORT,
    IDEMPOTENT_OPS,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.wsset import WSSet
    from repro.db.urelation import URelation
    from repro.sql.executor import QueryResult


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for retrying failed idempotent operations.

    The delay before retry *n* (1-based) is ``base_delay × multiplier^(n-1)``
    capped at ``max_delay``, then raised to any server-provided
    ``retry_after_ms`` hint (an overloaded server knows its own backlog
    better than a generic schedule), then multiplied by ``1 + jitter × U``
    with ``U`` uniform in ``[0, 1)`` — jitter decorrelates a thundering herd
    of clients all shed at the same moment.  ``seed`` makes the jitter
    deterministic (tests); by default each session draws from its own RNG.

    ``attempts`` counts total tries including the first, so ``attempts=1``
    disables retrying while keeping the policy object.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be at least 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def delay_for(
        self,
        retry_number: int,
        *,
        retry_after_ms: int | None = None,
        rng: "random.Random | None" = None,
    ) -> float:
        """Seconds to sleep before retry ``retry_number`` (1-based)."""
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** (retry_number - 1)
        )
        if retry_after_ms is not None:
            delay = min(self.max_delay, max(delay, retry_after_ms / 1000.0))
        if self.jitter:
            delay *= 1.0 + self.jitter * (rng or random).random()
        return delay


def _failure_mode(error: BaseException) -> tuple[bool, bool]:
    """Classify a call failure as ``(retryable, connection_is_gone)``.

    Retryable failures are those where the server provably did not — or can
    harmlessly again — apply the request: shed before admission
    (``overloaded``), a worker pool that died mid-computation (pure tasks),
    a dropped/desynchronised connection, a client-side response timeout.
    A ``deadline-exceeded`` error is *not* retryable — the same request with
    the same deadline fails the same way — and neither is any typed
    computation error (they would fail identically on a healthy server).
    """
    if isinstance(error, (OverloadedError, WorkerPoolError)):
        return True, False  # clean error frame: the stream is still in sync
    if isinstance(error, RequestTimeoutError):
        return True, True  # the abandoned response desynchronised the stream
    if isinstance(error, ProtocolError):
        return error.code == "connection-closed", True
    if isinstance(error, (ConnectionError, OSError)):
        return True, True
    return False, False


def connect(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    timeout: float | None = None,
    request_timeout: float | None = None,
    retry: RetryPolicy | None = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> "ServerSession":
    """Open a blocking :class:`ServerSession` to a running confidence server.

    ``timeout`` bounds connection *establishment* (and re-establishment when
    retrying); ``request_timeout`` bounds each response wait — without it the
    socket blocks indefinitely, which is deliberate: exact confidence
    computations can run far longer than any generic default, and a
    mid-request timeout abandons the response, so the connection must be
    reopened.  ``retry`` enables automatic retry of idempotent operations
    (see :class:`RetryPolicy`).
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return ServerSession(
        sock,
        max_frame_bytes=max_frame_bytes,
        address=(host, port),
        connect_timeout=timeout,
        request_timeout=request_timeout,
        retry=retry,
    )


async def connect_async(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    request_timeout: float | None = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> "AsyncServerSession":
    """Open an :class:`AsyncServerSession` to a running confidence server."""
    reader, writer = await asyncio.open_connection(host, port)
    return AsyncServerSession(
        reader, writer,
        max_frame_bytes=max_frame_bytes,
        request_timeout=request_timeout,
    )


class _SessionCalls:
    """The shared request-building/decoding logic of both client flavours."""

    def _next_id(self) -> int:
        self._id += 1
        return self._id

    @staticmethod
    def _result_of(frame: dict, sent_id: int) -> object:
        if not isinstance(frame, dict) or "ok" not in frame:
            raise ProtocolError(f"malformed response frame {frame!r}")
        if not frame["ok"]:
            # Error frames may carry id null (the server could not read the
            # request's id, e.g. an oversized frame it had to drain); always
            # surface the server's code and message rather than an id
            # mismatch that would hide them.
            error = frame.get("error") or {}
            raise protocol.exception_for(
                error.get("code", "internal"),
                error.get("message", "unknown server error"),
                error.get("detail"),
            )
        if frame.get("id") != sent_id:
            raise ProtocolError(
                f"response id {frame.get('id')!r} does not match request id {sent_id}"
            )
        return frame.get("result")

    @staticmethod
    def _confidence_args(
        target: "WSSet | URelation | str", method: str, options: dict
    ) -> dict:
        return ConfidenceRequest(target, method, **options).to_payload()

    @staticmethod
    def _many_args(targets, method: str, options: dict) -> dict:
        """The ``confidence_many`` frame: one request payload per target."""
        payloads = []
        for target in targets:
            if isinstance(target, ConfidenceRequest):
                payloads.append(target.to_payload())
            else:
                payloads.append(
                    ConfidenceRequest(target, method, **options).to_payload()
                )
        return {"requests": payloads}

    @staticmethod
    def _many_results(result: dict) -> list[ConfidenceResult]:
        return [
            ConfidenceResult.from_payload(payload) for payload in result["results"]
        ]

    @staticmethod
    def _batch_args(relation: "URelation | str", method: str, options: dict) -> dict:
        name = relation if isinstance(relation, str) else relation.name
        return {"relation": name, "method": method, **options}

    @staticmethod
    def _what_if_args(
        target: "WSSet | URelation | str", variable, ps, value
    ) -> dict:
        args = {
            "target": target_to_payload(target),
            "variable": variable,
            "ps": [float(p) for p in ps],
        }
        if value is not None:
            args["value"] = value
        return args

    @staticmethod
    def _batch_rows(result: dict) -> list[ConfidenceRow]:
        return [
            ConfidenceRow(tuple(row["values"]), row["confidence"])
            for row in result["rows"]
        ]


class ServerSession(_SessionCalls):
    """A blocking client connection mirroring the local ``Session`` API."""

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        address: tuple[str, int] | None = None,
        connect_timeout: float | None = None,
        request_timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._sock: socket.socket | None = sock
        self._max_frame_bytes = max_frame_bytes
        self._address = address
        self._connect_timeout = connect_timeout
        self._request_timeout = request_timeout
        self._retry = retry
        self._rng = random.Random(retry.seed) if retry is not None else None
        self._id = 0
        #: Retries performed over this session's lifetime (observability).
        self.retries = 0

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _call(
        self, op: str, args: dict | None = None, deadline_ms: float | None = None
    ) -> object:
        """One request/response round trip, retried per the session policy.

        Only idempotent operations retry (:data:`IDEMPOTENT_OPS`); a failure
        classified as connection-breaking closes the socket, and the next
        attempt reconnects to the remembered address.  Non-retryable errors
        — and retryable ones once the policy's attempts are spent — raise
        to the caller unchanged.
        """
        policy = self._retry if op in IDEMPOTENT_OPS else None
        attempts = policy.attempts if policy is not None else 1
        failures = 0
        while True:
            try:
                return self._call_once(op, args, deadline_ms)
            except Exception as error:  # noqa: BLE001 - reclassified below
                retryable, broken = _failure_mode(error)
                if broken:
                    self.close()
                failures += 1
                if not retryable or failures >= attempts:
                    raise
                self.retries += 1
                time.sleep(
                    policy.delay_for(
                        failures,
                        retry_after_ms=getattr(error, "retry_after_ms", None),
                        rng=self._rng,
                    )
                )

    def _call_once(
        self, op: str, args: dict | None, deadline_ms: float | None
    ) -> object:
        sent_id = self._next_id()
        sock = self._ensure_sock()
        protocol.send_frame(
            sock,
            protocol.request_frame(op, args, id=sent_id, deadline_ms=deadline_ms),
            max_frame_bytes=self._max_frame_bytes,
        )
        if self._request_timeout is not None:
            sock.settimeout(self._request_timeout)
        try:
            frame = protocol.recv_frame(sock, max_frame_bytes=self._max_frame_bytes)
        except TimeoutError:
            # The response may still arrive later; this stream can no longer
            # tell it apart from the next response, so the connection dies.
            self.close()
            raise RequestTimeoutError(
                f"no response to {op!r} within {self._request_timeout:g}s",
                timeout=self._request_timeout,
            ) from None
        finally:
            if self._sock is not None:
                self._sock.settimeout(None)
        if frame is None:
            raise ProtocolError("server closed the connection", code="connection-closed")
        return self._result_of(frame, sent_id)

    def _ensure_sock(self) -> socket.socket:
        """The live socket, reconnecting to the remembered address if closed."""
        if self._sock is None:
            if self._address is None:
                raise ProtocolError(
                    "connection is closed and this session has no address "
                    "to reconnect to (open it via connect())",
                    code="connection-closed",
                )
            sock = socket.create_connection(
                self._address, timeout=self._connect_timeout
            )
            sock.settimeout(None)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        """Close the connection (idempotent; a retrying session may reopen it)."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never matters twice
                pass

    def __enter__(self) -> "ServerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The session surface
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        """Liveness check; returns the server's ``{"pong": ..., "protocol": ...}``."""
        return self._call("ping")

    def health(self) -> dict:
        """The server's health payload: status plus admission pressure.

        Unlike :meth:`server_stats` this takes no server-side locks, so it
        answers even while conditioning or a saturated queue stalls
        everything else.
        """
        return self._call("health")

    def shard_map(self) -> dict:
        """The server's cluster membership, lock-free like :meth:`health`.

        ``{"sharded": false}`` on a stand-alone server; on a shard,
        ``{"sharded": true, "shard": i, "shards": n, "map": ...}`` with
        ``map`` a :class:`~repro.cluster.partition.ShardMap` payload.
        """
        return self._call("shard_map")

    def query(self, request: ConfidenceRequest) -> ConfidenceResult:
        # The request's deadline also rides at frame level, where the server
        # bounds the admission wait with it (not just the computation).
        return ConfidenceResult.from_payload(
            self._call(
                "confidence", request.to_payload(), deadline_ms=request.deadline_ms
            )
        )

    def confidence(
        self, target: "WSSet | URelation | str", method: str = "exact", **options
    ) -> ConfidenceResult:
        return ConfidenceResult.from_payload(
            self._call(
                "confidence",
                self._confidence_args(target, method, options),
                deadline_ms=options.get("deadline_ms"),
            )
        )

    def confidence_many(
        self,
        targets: "list[WSSet | URelation | str | ConfidenceRequest]",
        method: str = "exact",
        **options,
    ) -> list[ConfidenceResult]:
        """All targets in *one* ``confidence_many`` frame (one round trip).

        The server fans the batch out across its pool threads (with a
        process pool the requests genuinely overlap across cores) and
        answers in target order.
        """
        targets = list(targets)
        if not targets:
            return []
        return self._many_results(
            self._call(
                "confidence_many",
                self._many_args(targets, method, options),
                deadline_ms=options.get("deadline_ms"),
            )
        )

    def confidence_batch(
        self, relation: "URelation | str", method: str = "exact", **options
    ) -> list[ConfidenceRow]:
        return self._batch_rows(
            self._call("confidence_batch", self._batch_args(relation, method, options))
        )

    def certain_tuples(
        self, relation: "URelation | str", *, tolerance: float = 1e-9, **options
    ) -> list[tuple]:
        return [
            row.values
            for row in self.confidence_batch(relation, **options)
            if row.confidence >= 1.0 - tolerance
        ]

    def possible_tuples(
        self, relation: "URelation | str", *, threshold: float = 0.0, **options
    ) -> list[ConfidenceRow]:
        return [
            row
            for row in self.confidence_batch(relation, **options)
            if row.confidence > threshold
        ]

    def what_if(
        self,
        target: "WSSet | URelation | str",
        variable,
        ps,
        *,
        value=None,
        deadline_ms: float | None = None,
    ) -> list[float]:
        """A what-if sweep in one frame: ``P(target)`` at every point of ``ps``.

        The server compiles the target's lineage into a circuit once
        (cached across calls on the shared engine handle) and re-evaluates
        it per point — mirroring :meth:`~repro.db.session.Session.what_if`.
        ``variable`` and ``value`` must be JSON-representable, like ws-set
        targets.
        """
        result = self._call(
            "what_if",
            self._what_if_args(target, variable, ps, value),
            deadline_ms=deadline_ms,
        )
        return list(result["values"])

    def execute(self, sql: str) -> "QueryResult":
        return protocol.query_result_from_payload(self._call("execute", {"sql": sql}))

    def execute_script(self, sql: str) -> "list[QueryResult]":
        return [
            protocol.query_result_from_payload(payload)
            for payload in self._call("execute_script", {"sql": sql})
        ]

    def server_stats(self) -> dict:
        """The raw ``stats`` frame: engine snapshot plus server counters."""
        return self._call("stats")

    def metrics(self) -> dict:
        """The server's merged metrics snapshot (registry schema, lock-free).

        Counters, gauges and histogram snapshots keyed by Prometheus-style
        series name; feed histograms to
        :func:`repro.obs.metrics.quantile_from_snapshot` for p50/p90/p99.
        """
        return self._call("metrics")["metrics"]

    def statistics(self) -> EngineStats:
        """The shared engine's aggregate statistics (like ``Session.statistics``)."""
        return EngineStats.from_dict(self.server_stats()["engine"])

    @property
    def stats(self) -> EngineStats:
        """Alias of :meth:`statistics`."""
        return self.statistics()

    def __repr__(self) -> str:
        try:
            if self._sock is None:
                raise OSError
            peer = "%s:%s" % self._sock.getpeername()[:2]
        except OSError:
            peer = "closed"
        return f"ServerSession({peer})"


class AsyncServerSession(_SessionCalls):
    """An asyncio client connection mirroring the local ``AsyncSession`` API.

    Calls serialise on an internal lock (the protocol is request/response per
    connection); ``confidence_many`` therefore pipelines at the server only
    when issued from several connections, exactly like the blocking client.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        request_timeout: float | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        self._request_timeout = request_timeout
        self._id = 0
        self._lock = asyncio.Lock()

    async def _call(
        self, op: str, args: dict | None = None, deadline_ms: float | None = None
    ) -> object:
        async with self._lock:
            sent_id = self._next_id()
            await protocol.write_frame(
                self._writer,
                protocol.request_frame(op, args, id=sent_id, deadline_ms=deadline_ms),
                max_frame_bytes=self._max_frame_bytes,
            )
            try:
                if self._request_timeout is None:
                    frame = await protocol.read_frame(
                        self._reader, max_frame_bytes=self._max_frame_bytes
                    )
                else:
                    frame = await asyncio.wait_for(
                        protocol.read_frame(
                            self._reader, max_frame_bytes=self._max_frame_bytes
                        ),
                        self._request_timeout,
                    )
            except TimeoutError:
                # The stream is desynchronised (the abandoned response could
                # arrive any time); close so no later call misreads it.
                await self.close()
                raise RequestTimeoutError(
                    f"no response to {op!r} within {self._request_timeout:g}s",
                    timeout=self._request_timeout,
                ) from None
        if frame is None:
            raise ProtocolError("server closed the connection", code="connection-closed")
        return self._result_of(frame, sent_id)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    async def __aenter__(self) -> "AsyncServerSession":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def ping(self) -> dict:
        return await self._call("ping")

    async def health(self) -> dict:
        """The server's lock-free health payload (see the blocking twin)."""
        return await self._call("health")

    async def shard_map(self) -> dict:
        """The server's cluster membership (see the blocking twin)."""
        return await self._call("shard_map")

    async def query(self, request: ConfidenceRequest) -> ConfidenceResult:
        return ConfidenceResult.from_payload(
            await self._call(
                "confidence", request.to_payload(), deadline_ms=request.deadline_ms
            )
        )

    async def confidence(
        self, target: "WSSet | URelation | str", method: str = "exact", **options
    ) -> ConfidenceResult:
        return ConfidenceResult.from_payload(
            await self._call(
                "confidence",
                self._confidence_args(target, method, options),
                deadline_ms=options.get("deadline_ms"),
            )
        )

    async def confidence_many(
        self,
        targets: "list[WSSet | URelation | str | ConfidenceRequest]",
        method: str = "exact",
        **options,
    ) -> list[ConfidenceResult]:
        """All targets in one ``confidence_many`` frame (see the blocking twin)."""
        targets = list(targets)
        if not targets:
            return []
        return self._many_results(
            await self._call(
                "confidence_many",
                self._many_args(targets, method, options),
                deadline_ms=options.get("deadline_ms"),
            )
        )

    async def confidence_batch(
        self, relation: "URelation | str", method: str = "exact", **options
    ) -> list[ConfidenceRow]:
        return self._batch_rows(
            await self._call(
                "confidence_batch", self._batch_args(relation, method, options)
            )
        )

    async def certain_tuples(
        self, relation: "URelation | str", *, tolerance: float = 1e-9, **options
    ) -> list[tuple]:
        return [
            row.values
            for row in await self.confidence_batch(relation, **options)
            if row.confidence >= 1.0 - tolerance
        ]

    async def possible_tuples(
        self, relation: "URelation | str", *, threshold: float = 0.0, **options
    ) -> list[ConfidenceRow]:
        return [
            row
            for row in await self.confidence_batch(relation, **options)
            if row.confidence > threshold
        ]

    async def what_if(
        self,
        target: "WSSet | URelation | str",
        variable,
        ps,
        *,
        value=None,
        deadline_ms: float | None = None,
    ) -> list[float]:
        """A one-frame what-if sweep (see the blocking twin)."""
        result = await self._call(
            "what_if",
            self._what_if_args(target, variable, ps, value),
            deadline_ms=deadline_ms,
        )
        return list(result["values"])

    async def execute(self, sql: str) -> "QueryResult":
        return protocol.query_result_from_payload(
            await self._call("execute", {"sql": sql})
        )

    async def execute_script(self, sql: str) -> "list[QueryResult]":
        return [
            protocol.query_result_from_payload(payload)
            for payload in await self._call("execute_script", {"sql": sql})
        ]

    async def server_stats(self) -> dict:
        return await self._call("stats")

    async def metrics(self) -> dict:
        """The server's merged metrics snapshot (see the blocking twin)."""
        return (await self._call("metrics"))["metrics"]

    async def statistics(self) -> EngineStats:
        return EngineStats.from_dict((await self.server_stats())["engine"])

    def __repr__(self) -> str:
        return "AsyncServerSession()"
