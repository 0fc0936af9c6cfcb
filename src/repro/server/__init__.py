"""Confidence server: the session service of :mod:`repro.db.session` on a wire.

The server (:class:`~repro.server.server.ConfidenceServer`) exposes one
shared :class:`~repro.db.database.ProbabilisticDatabase` — one long-lived
engine, one interned id space, one memo cache — to many clients over a
length-prefixed JSON TCP protocol (:mod:`repro.server.protocol`).  Concurrent
connections pipeline their requests through one
:class:`~repro.db.session.Session` on a pool of threads, so every client
benefits from the sub-problems any other client has already solved.

The client library (:mod:`repro.server.client`) mirrors the local
:class:`~repro.db.session.Session` API over a socket: code written against a
session runs unchanged against :func:`connect`.  ``python -m repro.server``
starts a standalone server (see :mod:`repro.server.__main__` for the flags).

Serving is fault-tolerant end to end (protocol v3): request deadlines with
graceful degradation to approximate answers, bounded admission with load
shedding (:class:`~repro.errors.OverloadedError` + ``retry_after_ms``),
drain-phase shutdown, and client-side :class:`RetryPolicy` / request
timeouts restricted to provably idempotent operations
(:data:`IDEMPOTENT_OPS`).
"""

from repro.server.client import (
    AsyncServerSession,
    RetryPolicy,
    ServerSession,
    connect,
    connect_async,
)
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_PORT,
    IDEMPOTENT_OPS,
    PROTOCOL_VERSION,
    error_code,
    exception_for,
)
from repro.server.server import DEFAULT_GRACE, ConfidenceServer

__all__ = [
    "AsyncServerSession",
    "ConfidenceServer",
    "DEFAULT_GRACE",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_PORT",
    "IDEMPOTENT_OPS",
    "PROTOCOL_VERSION",
    "RetryPolicy",
    "ServerSession",
    "connect",
    "connect_async",
    "error_code",
    "exception_for",
]
