"""The unified confidence API: one protocol, two adapters, one codec, one entry point.

Three backends answer the same calls: the in-process
:class:`~repro.db.session.Session`, the served
:class:`~repro.server.client.ServerSession` /
:class:`~repro.server.client.AsyncServerSession`, and the cluster's async
:class:`~repro.cluster.coordinator.ClusterCoordinator`.  This module pins
down what they have in common:

* :class:`ConfidenceAPI` — the protocol every session subclasses.  Each
  session implements the :data:`PRIMITIVES` and ``close``; the derived
  calls — ``query`` (a one-request ``confidence_many``), ``confidence``,
  ``certain_tuples``, ``possible_tuples`` — live here once, and
  :func:`_then` chains them onto blocking and async primitives alike;
* :class:`AsyncAdapter` / :class:`BlockingAdapter` — one adapter per
  direction, forwarding every public call of the session it wraps:
  :class:`~repro.db.session.AsyncSession` is the async adapter over a
  ``Session``, :class:`~repro.cluster.session.ClusterSession` the blocking
  one over a ``ClusterCoordinator``;
* :func:`target_to_payload` / :func:`target_from_payload` — the one wire
  codec for confidence targets, shared by ``ConfidenceRequest`` and the
  server protocol (``repro.db.session`` re-exports the names);
* :func:`connect` — the single entry point: hand it a
  :class:`~repro.db.database.ProbabilisticDatabase` (or a bare
  :class:`~repro.db.world_table.WorldTable`), a ``"host:port"`` address, or
  a list of shard addresses, and get back the right session type with an
  identical method surface.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from inspect import isawaitable
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.wsset import WSSet
from repro.db.urelation import URelation

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Awaitable, Iterable, Sequence

    from repro.core.engine import EngineStats
    from repro.db.confidence import ConfidenceRow
    from repro.db.session import ConfidenceRequest, ConfidenceResult


def _then(value, fn):
    """``fn(value)``, or for an awaitable ``value`` a coroutine of it — so
    one derived body serves blocking and async sessions alike."""
    if isawaitable(value):

        async def chained():
            return fn(await value)

        return chained()
    return fn(value)


def _only(results: list):
    """The one result of a one-request batch, raised if it is an error."""
    (result,) = results
    if isinstance(result, BaseException):
        raise result
    return result


def confidence_requests(targets, method: str, options: dict) -> list:
    """A ``confidence_many`` call's requests: each target, or one built for it."""
    from repro.db.session import ConfidenceRequest

    return [
        target
        if isinstance(target, ConfidenceRequest)
        else ConfidenceRequest(target, method, **options)
        for target in targets
    ]


@runtime_checkable
class ConfidenceAPI(Protocol):
    """The method surface shared by every confidence session.

    Local, single-server and cluster sessions all answer the same calls with
    the same meanings; async flavours expose the same names as coroutines.
    Obtain an implementation with :func:`connect` — the call sites stay
    identical whichever backend serves them.  Subclasses implement the
    primitive calls and inherit ``query``, ``confidence``,
    ``certain_tuples`` and ``possible_tuples``.
    """

    def query(self, request: "ConfidenceRequest") -> "ConfidenceResult":
        """Answer one :class:`~repro.db.session.ConfidenceRequest`: a
        one-request :meth:`confidence_many`, its error slot raised."""
        return _then(self.confidence_many([request]), _only)

    def confidence(
        self, target: "WSSet | URelation | str", method: str = "exact", **options
    ) -> "ConfidenceResult":
        """Confidence of one target (ws-set, relation object or name)."""
        from repro.db.session import ConfidenceRequest

        return self.query(ConfidenceRequest(target, method, **options))

    def confidence_many(
        self,
        targets: "Iterable[WSSet | URelation | str | ConfidenceRequest]",
        method: str = "exact",
        **options,
    ) -> "list[ConfidenceResult]":
        """Answer several queries, in order."""
        ...

    def confidence_batch(
        self, relation: "URelation | str", method: str = "exact", **options
    ) -> "list[ConfidenceRow]":
        """``conf()`` of every distinct value tuple of a relation."""
        ...

    def certain_tuples(
        self, relation: "URelation | str", *, tolerance: float = 1e-9, **options
    ) -> list[tuple]:
        """Value tuples present in every possible world, via one batch."""
        return _then(
            self.confidence_batch(relation, **options),
            lambda rows: [
                row.values for row in rows if row.confidence >= 1.0 - tolerance
            ],
        )

    def possible_tuples(
        self, relation: "URelation | str", *, threshold: float = 0.0, **options
    ) -> "list[ConfidenceRow]":
        """Value tuples whose confidence exceeds ``threshold``, via one batch."""
        return _then(
            self.confidence_batch(relation, **options),
            lambda rows: [row for row in rows if row.confidence > threshold],
        )

    def what_if(
        self, target: "WSSet | URelation | str", variable, ps: "Sequence[float]",
        *, value=None, deadline_ms: float | None = None,
    ) -> list[float]:
        """The target's confidence at each point of a probability sweep
        (a served ``deadline_ms`` bounds only the server's admission wait)."""
        ...

    def statistics(self) -> "EngineStats":
        """Aggregate engine statistics (merged across shards for clusters)."""
        ...

    def close(self) -> "None | Awaitable[None]":
        """Release the session's resources."""
        ...


#: The calls every session implements and both adapters forward; the rest of
#: :class:`ConfidenceAPI` derives from them, except each session's own ``close``.
PRIMITIVES = ("confidence_many", "confidence_batch", "what_if", "statistics")


# ----------------------------------------------------------------------
# One adapter per direction
# ----------------------------------------------------------------------
class _Adapter(ConfidenceAPI):
    """A session running each call of the session it wraps through ``_run``.

    The :data:`PRIMITIVES` are bound on each adapter class, since the
    :class:`ConfidenceAPI` stubs would shadow ``__getattr__``; any other
    public method comes back wrapped in ``_run``, and a plain attribute
    (``shard_map``, ``addresses``, …) unchanged.
    """

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        attribute = getattr(self._target, name)
        return partial(self._run, attribute) if callable(attribute) else attribute


class AsyncAdapter(_Adapter):
    """A blocking session as an async one: each call runs on one worker thread.

    Calls serialise there, keeping a shared engine consistent without
    parking one pool thread per queued call as a lock around
    ``asyncio.to_thread`` would: a large ``gather`` queues in the executor.
    With ``owns_target``, :meth:`close` closes the wrapped session too.
    """

    def __init__(
        self, target, *, owns_target: bool = False, thread_name: str = "repro-async"
    ) -> None:
        self._target = target
        self._owns_target = owns_target
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=thread_name
        )

    async def _run(self, function, /, *args, **kwargs):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, partial(function, *args, **kwargs)
        )

    def close(self) -> None:
        """Let queued calls complete and join the worker thread."""
        self._executor.shutdown()
        if self._owns_target:
            self._target.close()


class BlockingAdapter(_Adapter):
    """An async session as a blocking one: each call runs on a private loop.

    Calls reach the loop's daemon thread by ``run_coroutine_threadsafe``, so
    I/O inside one call (a cluster's shard fan-out) stays concurrent while
    the caller blocks.  Build the target first: one that rejects its
    arguments then leaves no thread behind.
    """

    def __init__(self, target, *, thread_name: str = "repro-blocking-loop") -> None:
        self._target = target
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=thread_name, daemon=True
        )
        self._thread.start()

    def _run(self, function, /, *args, **kwargs):
        if self._closed:
            raise RuntimeError("session is closed")
        return asyncio.run_coroutine_threadsafe(
            function(*args, **kwargs), self._loop
        ).result()

    def close(self) -> None:
        """Close the wrapped session on its loop, then stop the loop thread."""
        if self._closed:
            return
        try:
            self._run(self._target.close)
        finally:
            self._closed = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _forward(name: str, coroutine: bool):
    """The adapter method ``name``: the wrapped session's ``name`` via ``_run``."""
    if coroutine:

        async def method(self, *args, **kwargs):
            return await self._run(getattr(self._target, name), *args, **kwargs)

    else:

        def method(self, *args, **kwargs):
            return self._run(getattr(self._target, name), *args, **kwargs)

    method.__name__ = name
    method.__doc__ = getattr(ConfidenceAPI, name).__doc__
    return method


for _name in PRIMITIVES:
    setattr(AsyncAdapter, _name, _forward(_name, coroutine=True))
    setattr(BlockingAdapter, _name, _forward(_name, coroutine=False))
del _name


# ----------------------------------------------------------------------
# The confidence-target wire codec
# ----------------------------------------------------------------------
def target_to_payload(target: "WSSet | URelation | str") -> dict:
    """Encode a confidence target for the wire.

    Relation names travel by name (``{"kind": "relation"}``) and are resolved
    against the server's database; ws-sets (and relations passed as objects)
    travel extensionally in :meth:`WSSet.to_wire` form, one flat
    ``[variable, value, …]`` list per descriptor (``{"kind": "wsset"}``).
    """
    if isinstance(target, str):
        return {"kind": "relation", "name": target}
    if isinstance(target, URelation):
        target = target.descriptors()
    if isinstance(target, WSSet):
        return {"kind": "wsset", "descriptors": target.to_wire()}
    raise TypeError(f"cannot encode {target!r} as a confidence target")


def target_from_payload(payload: dict) -> "WSSet | str":
    """Decode a :func:`target_to_payload` target.

    A ws-set comes back through :meth:`WSSet.from_wire`, which checks its
    shape and functionality and leaves descriptor objects unbuilt.
    """
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValueError(f"malformed confidence target {payload!r}")
    if payload["kind"] == "relation":
        name = payload.get("name")
        if not isinstance(name, str):
            raise ValueError(f"relation target needs a string name, got {name!r}")
        return name
    if payload["kind"] == "wsset":
        return WSSet.from_wire(payload.get("descriptors"))
    raise ValueError(f"unknown target kind {payload['kind']!r}")


# ----------------------------------------------------------------------
# The unified entry point
# ----------------------------------------------------------------------
def _parse_address(address) -> tuple[str, int]:
    """``"host:port"`` / ``"host"`` / ``(host, port)`` -> ``(host, port)``."""
    from repro.server.protocol import DEFAULT_PORT

    if isinstance(address, str):
        host, separator, port = address.rpartition(":")
        if separator:
            return host, int(port)
        return address, DEFAULT_PORT
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    raise TypeError(f"cannot interpret {address!r} as a server address")


def connect(target, **options) -> ConfidenceAPI:
    """Open the right kind of confidence session for ``target``.

    * a :class:`~repro.db.database.ProbabilisticDatabase` (or bare
      :class:`~repro.db.world_table.WorldTable`) returns an in-process
      :class:`~repro.db.session.Session` (options: ``config``, ``epsilon``,
      ``workers``, … — everything the ``Session`` constructor takes);
    * a ``"host:port"`` string or one ``(host, port)`` pair returns a
      :class:`~repro.server.client.ServerSession` over TCP (options:
      ``timeout``, ``request_timeout``, ``retry``, …);
    * a list of two or more addresses returns a
      :class:`~repro.cluster.session.ClusterSession` fanning out over the
      shards (options: ``retry``, ``on_shard_failure``, …).

    The returned object implements :class:`ConfidenceAPI` in every case, so
    call sites do not change when the deployment does.
    """
    from repro.db.database import ProbabilisticDatabase
    from repro.db.world_table import WorldTable

    if isinstance(target, (ProbabilisticDatabase, WorldTable)):
        from repro.db.session import Session

        return Session(target, **options)
    if isinstance(target, str) or (
        isinstance(target, tuple)
        and len(target) == 2
        and not isinstance(target[1], (tuple, list, str))
    ):
        from repro.server.client import connect as connect_server

        host, port = _parse_address(target)
        return connect_server(host, port, **options)
    if isinstance(target, (list, tuple)):
        addresses = [_parse_address(address) for address in target]
        if not addresses:
            raise ValueError("connect() needs at least one shard address")
        if len(addresses) == 1:
            from repro.server.client import connect as connect_server

            host, port = addresses[0]
            return connect_server(host, port, **options)
        from repro.cluster.session import ClusterSession

        return ClusterSession(addresses, **options)
    raise TypeError(
        f"cannot connect to {target!r}: expected a ProbabilisticDatabase, "
        f"a 'host:port' address, or a list of shard addresses"
    )
