"""The confidence server's wire protocol: length-prefixed JSON frames.

Every frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object.  Requests carry the protocol version
(:data:`PROTOCOL_VERSION`, the only one spoken), a client-chosen correlation
id, an operation name and its arguments::

    {"v": 6, "id": 7, "op": "confidence_many", "args": {"requests": [...]}}

Responses echo the id and carry either a result or a structured error::

    {"v": 6, "id": 7, "ok": true,  "result": {"results": [...]}}
    {"v": 6, "id": 7, "ok": false, "error": {"code": "budget-exceeded",
                                             "message": "..."}}

Operations (see ``docs/protocol.md`` for the full schemas):

``ping``
    Liveness check; returns the server's protocol version.
``health``
    Serving health: admission-queue depth, in-flight count, shed totals and
    a coarse ``status`` (``ok`` / ``overloaded`` / ``draining``).  Never
    queued behind computations, so it answers even under full load.
``stats``
    Engine statistics (:meth:`repro.core.engine.EngineStats.as_dict`) plus
    server-level counters.
``metrics``
    A merged :meth:`repro.obs.metrics.MetricsRegistry.snapshot` of the
    server's and the engine handle's instruments: per-op and per-method
    latency histograms (p50/p90/p99 derivable client-side via
    :func:`repro.obs.metrics.quantile_from_snapshot`), admission-queue
    depth, in-flight and shed/deadline counters.  Like ``health`` it is
    answered without queueing, so it works under full load.
``confidence_many``
    Confidence requests (:meth:`~repro.db.session.ConfidenceRequest.to_payload`
    form, including per-request budgets, seeds and ε/δ) answered in one
    round trip with :class:`~repro.db.session.ConfidenceResult` payloads in
    request order; a single query is a one-request batch.  The server fans
    the batch out across its pool threads, so with a process pool the
    requests genuinely overlap.
``confidence_batch``
    Per-tuple ``conf()`` of a named relation through
    :meth:`~repro.db.session.Session.confidence_batch`.
``what_if``
    A what-if sweep: one target, one variable, many probability points,
    answered in a single frame through a compiled lineage circuit
    (:meth:`~repro.db.session.Session.what_if`) — the decomposition runs
    once server-side, every point is a circuit re-evaluation.
``shard_map``
    The cluster partition this server was booted with: its own shard index,
    the shard count and the full :class:`~repro.cluster.partition.ShardMap`
    payload (variable -> shard ownership plus per-relation component
    placement).  Every shard of a cluster serves the identical map, so a
    coordinator can bootstrap from whichever shard answers first.  Like
    ``health`` it is answered without queueing; a server booted without
    shard info answers ``{"sharded": false}``.
``execute`` / ``execute_script``
    SQL through the shared session; results travel as
    :func:`query_result_to_payload` objects.

Error frames map the :mod:`repro.errors` hierarchy onto stable string codes
(:data:`ERROR_CODES`); :func:`exception_for` reverses the mapping on the
client so a remote :class:`~repro.errors.BudgetExceededError` raises a local
:class:`~repro.errors.BudgetExceededError`.  Frames that are malformed,
oversized or of an unsupported version are answered with protocol error
frames (codes ``malformed-frame``, ``frame-too-large``,
``unsupported-version``, ``unknown-op``) without closing the connection.

This module is transport-agnostic except for two small helpers per transport
flavour: :func:`read_frame` / :func:`write_frame` for ``asyncio`` streams and
:func:`recv_frame` / :func:`send_frame` for blocking sockets.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import struct
from typing import TYPE_CHECKING

from repro.errors import (
    BudgetExceededError,
    ConditioningError,
    DeadlineExceededError,
    DescriptorError,
    InconsistentDescriptorError,
    InvalidDistributionError,
    OverloadedError,
    ProtocolError,
    QueryError,
    RemoteError,
    ReproError,
    SchemaError,
    ShardUnavailableError,
    SQLSyntaxError,
    UnknownAttributeError,
    UnknownRelationError,
    UnknownValueError,
    UnknownVariableError,
    WorkerPoolError,
    WorldTableError,
    ZeroProbabilityConditionError,
)
from repro.testing import faults as _faults

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.executor import QueryResult

#: The one protocol version: clients send it on every frame, and the server
#: answers a frame carrying anything else with ``unsupported-version``.
PROTOCOL_VERSION = 6

#: Default TCP port of ``python -m repro.server`` (the paper's year).
DEFAULT_PORT = 2008

#: Default upper bound on one frame's payload size (requests and responses).
DEFAULT_MAX_FRAME_BYTES = 4 * 1024 * 1024

#: The 4-byte big-endian unsigned length prefix of every frame.
HEADER = struct.Struct(">I")

#: Operations the server understands.
OPS = (
    "ping",
    "health",
    "stats",
    "metrics",
    "shard_map",
    "confidence_many",
    "confidence_batch",
    "what_if",
    "execute",
    "execute_script",
)

#: Operations a client may safely retry after a transport failure.
#:
#: Retry safety is about *server state*, not determinism: the read-only
#: operations (liveness, statistics, every confidence flavour) leave the
#: database untouched, so re-running one after a dropped connection — even
#: when the first attempt may have completed server-side — changes nothing
#: but the memo cache.  ``execute`` / ``execute_script`` are excluded
#: because SQL may contain ``assert``, which *conditions the database*:
#: a retry after an ambiguous failure could condition twice.  Clients that
#: know a statement is a plain select can still retry it themselves.
IDEMPOTENT_OPS = frozenset(
    {
        "ping",
        "health",
        "stats",
        "metrics",
        "shard_map",
        "confidence_many",
        "confidence_batch",
        "what_if",
    }
)

#: Exception class -> wire error code, most specific classes first (the first
#: ``isinstance`` match wins, so subclasses must precede their bases).
ERROR_CODES: tuple[tuple[type[ReproError], str], ...] = (
    (DeadlineExceededError, "deadline-exceeded"),
    (OverloadedError, "overloaded"),
    (ShardUnavailableError, "shard-unavailable"),
    (BudgetExceededError, "budget-exceeded"),
    (SQLSyntaxError, "sql-syntax"),
    (UnknownRelationError, "unknown-relation"),
    (UnknownAttributeError, "unknown-attribute"),
    (SchemaError, "schema"),
    (QueryError, "query"),
    (UnknownVariableError, "unknown-variable"),
    (UnknownValueError, "unknown-value"),
    (InvalidDistributionError, "invalid-distribution"),
    (WorldTableError, "world-table"),
    (InconsistentDescriptorError, "inconsistent-descriptor"),
    (DescriptorError, "descriptor"),
    (ZeroProbabilityConditionError, "zero-probability-condition"),
    (ConditioningError, "conditioning"),
    (WorkerPoolError, "worker-pool"),
    (ReproError, "repro"),
)

#: Codes for failures of the protocol itself (no repro exception behind them).
PROTOCOL_ERROR_CODES = (
    "malformed-frame",
    "frame-too-large",
    "unsupported-version",
    "unknown-op",
    "connection-closed",
    "internal",
)


def error_code(exception: BaseException) -> str:
    """The wire error code for an exception (``"internal"`` if unmapped)."""
    if isinstance(exception, ProtocolError):
        return exception.code
    for cls, code in ERROR_CODES:
        if isinstance(exception, cls):
            return code
    return "internal"


def error_detail(exception: BaseException) -> dict:
    """Structured, JSON-safe fields of an exception for the error frame.

    Lets :func:`exception_for` rebuild exceptions whose constructors take
    more than a message (relation/attribute/variable names, budget figures).
    """
    if isinstance(exception, UnknownRelationError):
        return {"name": exception.name}
    if isinstance(exception, UnknownAttributeError):
        return {"attribute": exception.attribute, "schema": list(exception.schema)}
    if isinstance(exception, UnknownValueError):
        return {
            "variable": _jsonable(exception.variable),
            "value": _jsonable(exception.value),
        }
    if isinstance(exception, UnknownVariableError):
        return {"variable": _jsonable(exception.variable)}
    if isinstance(exception, BudgetExceededError):
        detail = {}
        if exception.elapsed is not None:
            detail["elapsed"] = exception.elapsed
        if exception.nodes is not None:
            detail["nodes"] = exception.nodes
        return detail
    if isinstance(exception, DeadlineExceededError):
        if exception.deadline_ms is not None:
            return {"deadline_ms": exception.deadline_ms}
        return {}
    if isinstance(exception, OverloadedError):
        if exception.retry_after_ms is not None:
            return {"retry_after_ms": exception.retry_after_ms}
        return {}
    if isinstance(exception, ShardUnavailableError):
        if exception.shard is not None:
            return {"shard": exception.shard}
        return {}
    return {}


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def exception_for(code: str, message: str, detail: dict | None = None) -> ReproError:
    """The local exception a client should raise for a remote error frame.

    Structured classes are rebuilt from ``detail`` (see :func:`error_detail`);
    unknown codes become :class:`~repro.errors.RemoteError`.
    """
    detail = detail or {}
    if code == "unknown-relation":
        return UnknownRelationError(detail.get("name", message))
    if code == "unknown-attribute":
        return UnknownAttributeError(
            detail.get("attribute", message), tuple(detail.get("schema", ()))
        )
    if code == "unknown-variable":
        return UnknownVariableError(detail.get("variable", message))
    if code == "unknown-value":
        return UnknownValueError(detail.get("variable", message), detail.get("value"))
    if code == "budget-exceeded":
        return BudgetExceededError(
            message, elapsed=detail.get("elapsed"), nodes=detail.get("nodes")
        )
    if code == "deadline-exceeded":
        return DeadlineExceededError(message, deadline_ms=detail.get("deadline_ms"))
    if code == "overloaded":
        return OverloadedError(message, retry_after_ms=detail.get("retry_after_ms"))
    if code == "shard-unavailable":
        return ShardUnavailableError(message, shard=detail.get("shard"))
    plain: dict[str, type[ReproError]] = {
        "sql-syntax": SQLSyntaxError,
        "schema": SchemaError,
        "query": QueryError,
        "invalid-distribution": InvalidDistributionError,
        "world-table": WorldTableError,
        "inconsistent-descriptor": InconsistentDescriptorError,
        "descriptor": DescriptorError,
        "zero-probability-condition": ZeroProbabilityConditionError,
        "conditioning": ConditioningError,
        "worker-pool": WorkerPoolError,
        "repro": ReproError,
    }
    cls = plain.get(code)
    if cls is not None:
        return cls(message)
    if code in PROTOCOL_ERROR_CODES:
        return ProtocolError(message, code=code)
    return RemoteError(code, message)


# ----------------------------------------------------------------------
# Frame construction
# ----------------------------------------------------------------------
def request_frame(
    op: str,
    args: dict | None = None,
    *,
    id: int,
    deadline_ms: float | None = None,
) -> dict:
    """A request frame for ``op`` (client side).

    ``deadline_ms`` asks the server to answer within
    that many milliseconds of receiving the frame — covering queueing time,
    not just computation — or fail fast with ``deadline-exceeded``.
    """
    frame: dict = {"v": PROTOCOL_VERSION, "id": id, "op": op, "args": args or {}}
    if deadline_ms is not None:
        frame["deadline_ms"] = deadline_ms
    return frame


def ok_frame(id: object, result: object) -> dict:
    """A success response echoing the request ``id``."""
    return {"v": PROTOCOL_VERSION, "id": id, "ok": True, "result": result}


def error_frame(
    id: object,
    code: str,
    message: str,
    detail: dict | None = None,
) -> dict:
    """An error response; ``id`` is ``None`` when the request had none."""
    error: dict = {"code": code, "message": message}
    if detail:
        error["detail"] = detail
    return {"v": PROTOCOL_VERSION, "id": id, "ok": False, "error": error}


def encode_frame(
    payload: dict, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Serialise one frame: length prefix plus compact JSON body.

    Frames are trees the codec builds, so the encoder skips its per-container
    cycle check.
    """
    body = json.dumps(
        payload, separators=(",", ":"), allow_nan=True, check_circular=False
    ).encode("utf-8")
    if len(body) > max_frame_bytes:
        raise _too_large_error(len(body), max_frame_bytes)
    return HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> dict:
    """Parse a frame body; raises :class:`ProtocolError` unless it is a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


# ----------------------------------------------------------------------
# QueryResult codec (SQL answers on the wire)
# ----------------------------------------------------------------------
def query_result_to_payload(result: "QueryResult") -> dict:
    """Encode a SQL :class:`~repro.sql.executor.QueryResult`.

    Only the relational surface travels — kind, columns, rows and the
    confidence value; the answer U-relation and ws-set stay server-side
    (clients needing lineage should query ``conf()`` columns explicitly).
    """
    return {
        "kind": result.kind,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "confidence": result.confidence,
    }


def query_result_from_payload(payload: dict) -> "QueryResult":
    """Decode a :func:`query_result_to_payload` object (rows become tuples)."""
    from repro.sql.executor import QueryResult

    return QueryResult(
        kind=payload["kind"],
        columns=tuple(payload.get("columns", ())),
        rows=[tuple(row) for row in payload.get("rows", ())],
        confidence=payload.get("confidence"),
    )


def _too_large_error(length: int, max_frame_bytes: int) -> ProtocolError:
    """The error raised after an oversized frame has been drained."""
    return ProtocolError(
        f"frame of {length} bytes exceeds the {max_frame_bytes}-byte limit",
        code="frame-too-large",
    )


def _drain_interrupted_error() -> ProtocolError:
    return ProtocolError(
        "connection closed while draining an oversized frame",
        code="connection-closed",
    )


# ----------------------------------------------------------------------
# asyncio-stream transport
# ----------------------------------------------------------------------
async def write_frame(writer: asyncio.StreamWriter, payload: dict,
                      *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
    """Encode and send one frame, draining the writer.

    Fault point ``frame.send`` (chaos testing only — a no-op unless armed):
    ``drop`` severs the connection before writing, ``truncate`` writes half
    the frame and then severs it, ``delay`` sleeps before writing.
    """
    data = encode_frame(payload, max_frame_bytes=max_frame_bytes)
    if _faults.INJECTOR.armed:
        fault = _faults.take("frame.send")
        if fault is not None:
            if fault.seconds:
                await asyncio.sleep(fault.seconds)
            if fault.kind in ("drop", "truncate"):
                if fault.kind == "truncate":
                    writer.write(fault.truncate(data))
                    with _suppressed_connection_errors():
                        await writer.drain()
                writer.close()
                raise ConnectionResetError(
                    f"fault injection: connection {fault.kind} mid-frame"
                )
    writer.write(data)
    await writer.drain()


@contextlib.contextmanager
def _suppressed_connection_errors():
    try:
        yield
    except (ConnectionError, OSError):
        pass


async def read_frame(reader: asyncio.StreamReader,
                     *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    An oversized frame is *drained* (its announced bytes are read and
    discarded, keeping the stream synchronised) and then reported as a
    ``frame-too-large`` :class:`ProtocolError`, so servers can answer with an
    error frame and keep the connection alive.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-header", code="connection-closed") from error
    (length,) = HEADER.unpack(header)
    if length > max_frame_bytes:
        remaining = length
        while remaining > 0:
            chunk = await reader.read(min(remaining, 1 << 16))
            if not chunk:
                raise _drain_interrupted_error()
            remaining -= len(chunk)
        raise _too_large_error(length, max_frame_bytes)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame", code="connection-closed") from error
    return decode_payload(body)


# ----------------------------------------------------------------------
# Blocking-socket transport
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, payload: dict,
               *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
    """Encode and send one frame on a blocking socket.

    Shares the ``frame.send`` fault point of :func:`write_frame` (chaos
    testing only; a no-op unless armed).
    """
    data = encode_frame(payload, max_frame_bytes=max_frame_bytes)
    if _faults.INJECTOR.armed:
        fault = _faults.take("frame.send")
        if fault is not None:
            fault.sleep()
            if fault.kind in ("drop", "truncate"):
                if fault.kind == "truncate":
                    with _suppressed_connection_errors():
                        sock.sendall(fault.truncate(data))
                with _suppressed_connection_errors():
                    sock.close()
                raise ConnectionResetError(
                    f"fault injection: connection {fault.kind} mid-frame"
                )
    sock.sendall(data)


def recv_frame(sock: socket.socket,
               *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> dict | None:
    """Read one frame from a blocking socket; ``None`` on clean EOF.

    Mirrors :func:`read_frame`: an oversized frame is drained in full before
    the ``frame-too-large`` error is raised, so the stream stays
    synchronised and the connection remains usable.
    """
    header = _recv_exactly(sock, HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > max_frame_bytes:
        remaining = length
        while remaining > 0:
            chunk = sock.recv(min(remaining, 1 << 16))
            if not chunk:
                raise _drain_interrupted_error()
            remaining -= len(chunk)
        raise _too_large_error(length, max_frame_bytes)
    body = _recv_exactly(sock, length, allow_eof=False)
    return decode_payload(body)


def _recv_exactly(sock: socket.socket, n: int, *, allow_eof: bool) -> bytes | None:
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
