"""Client library for the confidence server: two transports, one method table.

:class:`ServerSession` (blocking socket) and :class:`AsyncServerSession`
(asyncio streams) answer the :class:`~repro.db.api.ConfidenceAPI` of a local
:class:`~repro.db.session.Session`, so code runs unchanged against a socket::

    with connect("127.0.0.1", 2008) as session:
        result = session.confidence("R", method="hybrid", seed=7)
        rows = session.confidence_batch("R")

Each wire call is written once, on the shared method table, as
``self._request(op, args, deadline_ms, decode)``.  The transports differ only
in ``_request``: the blocking one returns ``decode(self._call(...))``; the
async one is a coroutine doing the same, so every method of
:class:`AsyncServerSession` returns an awaitable.  ``query`` (a one-request
``confidence_many`` frame), ``confidence``, ``certain_tuples`` and
``possible_tuples`` come from ``ConfidenceAPI``.
Results are the local dataclasses, and error frames re-raise the matching
:mod:`repro.errors` exception.

Each connection is strictly request/response; ``confidence_many`` ships all
its targets in one frame for the server to fan out across its pool.
``request_timeout`` bounds each response wait
(:class:`~repro.errors.RequestTimeoutError`; the desynchronised connection
is closed).  A ``deadline_ms`` rides on the frame, where the server bounds
queueing with it and degrades an overrunning exact computation to a
Karp-Luby answer.  Only the blocking transport retries, under a
:class:`RetryPolicy` and only for :data:`~repro.server.protocol.IDEMPOTENT_OPS`
(``execute`` can condition the database, so resending it could apply it
twice); an asyncio caller composes its own retry loops.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.engine import EngineStats
from repro.db.api import ConfidenceAPI, confidence_requests, target_to_payload
from repro.db.confidence import ConfidenceRow
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
    from collections.abc import Iterable

    from repro.core.wsset import WSSet
    from repro.db.urelation import URelation
    from repro.sql.executor import QueryResult


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for retrying failed idempotent operations.

    The delay before retry *n* (1-based) is ``base_delay × multiplier^(n-1)``
    capped at ``max_delay``, raised to any server ``retry_after_ms`` hint
    (an overloaded server knows its backlog), then multiplied by
    ``1 + jitter × U`` with ``U`` uniform in ``[0, 1)`` to decorrelate
    clients shed at the same moment.  ``seed`` makes the jitter
    deterministic; by default each session draws from its own RNG.

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


def _result_of(frame: dict | None, sent_id: int) -> object:
    """The ``result`` of a response frame, or its error re-raised locally."""
    if frame is None:
        raise ProtocolError("server closed the connection", code="connection-closed")
    if not isinstance(frame, dict) or "ok" not in frame:
        raise ProtocolError(f"malformed response frame {frame!r}")
    if not frame["ok"]:
        # Error frames may carry id null (the server could not read the
        # request's id, e.g. an oversized frame it had to drain): surface
        # the server's code and message, not an id mismatch.
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


def _raw(result):
    return result


class _ServedSession(ConfidenceAPI):
    """The one method table of both served clients.

    Each call is one ``self._request(op, args, deadline_ms, decode)``; the
    transport subclass decides whether that blocks or returns a coroutine.
    """

    def _request(self, op, args=None, deadline_ms=None, decode=_raw):
        raise NotImplementedError  # defined by each transport

    def ping(self) -> dict:
        """Liveness check; returns the server's ``{"pong": ..., "protocol": ...}``."""
        return self._request("ping")

    def health(self) -> dict:
        """The server's health payload: status plus admission pressure.

        Unlike :meth:`server_stats` this takes no server-side locks, so it
        answers even while conditioning or a saturated queue stalls
        everything else.
        """
        return self._request("health")

    def shard_map(self) -> dict:
        """The server's cluster membership, lock-free like :meth:`health`.

        ``{"sharded": false}`` on a stand-alone server; on a shard,
        ``{"sharded": true, "shard": i, "shards": n, "map": ...}`` with
        ``map`` a :class:`~repro.cluster.partition.ShardMap` payload.
        """
        return self._request("shard_map")

    def confidence_many(
        self,
        targets: "Iterable[WSSet | URelation | str | ConfidenceRequest]",
        method: str = "exact",
        **options,
    ) -> list[ConfidenceResult]:
        """All targets in *one* frame, fanned out by the server's pool and
        answered in target order (an empty batch answers ``[]``).

        The frame's deadline, which bounds the server's admission wait, is
        the loosest request deadline when every request has one: no request
        waits past its own, and none is cut short by another's."""
        requests = confidence_requests(targets, method, options)
        deadlines = [request.deadline_ms for request in requests]
        return self._request(
            "confidence_many",
            {"requests": [request.to_payload() for request in requests]},
            None if None in deadlines or not deadlines else max(deadlines),
            lambda result: list(map(ConfidenceResult.from_payload, result["results"])),
        )

    def confidence_batch(
        self, relation: "URelation | str", method: str = "exact", **options
    ) -> list[ConfidenceRow]:
        name = relation if isinstance(relation, str) else relation.name
        return self._request(
            "confidence_batch",
            {"relation": name, "method": method, **options},
            options.get("deadline_ms"),
            lambda result: [
                ConfidenceRow(tuple(row["values"]), row["confidence"])
                for row in result["rows"]
            ],
        )

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

        The server re-evaluates the target's cached lineage circuit per point,
        like :meth:`~repro.db.session.Session.what_if`; ``variable`` and
        ``value`` must be JSON-representable, like ws-set targets.
        """
        args = {
            "target": target_to_payload(target),
            "variable": variable,
            "ps": [float(p) for p in ps],
        }
        if value is not None:
            args["value"] = value
        return self._request(
            "what_if", args, deadline_ms, lambda result: list(result["values"])
        )

    def execute(self, sql: str) -> "QueryResult":
        return self._request(
            "execute", {"sql": sql}, decode=protocol.query_result_from_payload
        )

    def execute_script(self, sql: str) -> "list[QueryResult]":
        return self._request(
            "execute_script",
            {"sql": sql},
            decode=lambda rows: list(map(protocol.query_result_from_payload, rows)),
        )

    def server_stats(self) -> dict:
        """The raw ``stats`` frame: engine snapshot plus server counters."""
        return self._request("stats")

    def metrics(self) -> dict:
        """The server's merged metrics snapshot (registry schema, lock-free).

        Counters, gauges and histogram snapshots keyed by Prometheus-style
        series name; feed histograms to
        :func:`repro.obs.metrics.quantile_from_snapshot` for p50/p90/p99.
        """
        return self._request("metrics", decode=lambda result: result["metrics"])

    def statistics(self) -> EngineStats:
        """The shared engine's aggregate statistics (like ``Session.statistics``)."""
        return self._request(
            "stats", decode=lambda result: EngineStats.from_dict(result["engine"])
        )

    @property
    def stats(self) -> EngineStats:
        """Alias of :meth:`statistics`."""
        return self.statistics()


class ServerSession(_ServedSession):
    """The blocking socket transport: retries, reconnects, response timeouts."""

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

    def _request(self, op: str, args=None, deadline_ms=None, decode=_raw):
        return decode(self._call(op, args, deadline_ms))

    def _call(
        self, op: str, args: dict | None = None, deadline_ms: float | None = None
    ) -> object:
        """One round trip, retried per the policy if ``op`` is idempotent.

        A connection-breaking failure closes the socket and the next attempt
        reconnects; other errors, and retries once spent, raise unchanged.
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
        self._id += 1
        sent_id = self._id
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
        return _result_of(frame, sent_id)

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

    def __repr__(self) -> str:
        try:
            peer = "%s:%s" % self._sock.getpeername()[:2]
        except (AttributeError, OSError):  # closed: no socket, or a dead one
            peer = "closed"
        return f"ServerSession({peer})"


class AsyncServerSession(_ServedSession):
    """The asyncio stream transport: every method returns an awaitable.

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

    async def _request(self, op: str, args=None, deadline_ms=None, decode=_raw):
        return decode(await self._call(op, args, deadline_ms))

    async def _call(
        self, op: str, args: dict | None = None, deadline_ms: float | None = None
    ) -> object:
        async with self._lock:
            self._id += 1
            sent_id = self._id
            await protocol.write_frame(
                self._writer,
                protocol.request_frame(op, args, id=sent_id, deadline_ms=deadline_ms),
                max_frame_bytes=self._max_frame_bytes,
            )
            try:
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
        return _result_of(frame, sent_id)

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

    def __repr__(self) -> str:
        return "AsyncServerSession()"
