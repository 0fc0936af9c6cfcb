"""The blocking client facade over a sharded cluster.

:class:`ClusterSession` implements the same :class:`~repro.db.api.ConfidenceAPI`
surface as :class:`~repro.db.session.Session` and
:class:`~repro.server.client.ServerSession`, so code written against the
protocol — or obtained through :func:`repro.connect` — runs unchanged whether
it talks to an in-process engine, one server, or a cluster.

Internally the session owns a private asyncio event loop on a daemon thread
and submits every call to its :class:`~repro.cluster.coordinator.ClusterCoordinator`
with ``run_coroutine_threadsafe`` — cross-shard fan-out stays concurrent
while the caller blocks exactly like any other session.
"""

from __future__ import annotations

import asyncio
import threading
from typing import TYPE_CHECKING

from repro.cluster.coordinator import ClusterCoordinator
from repro.db.api import ConfidenceAPI

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable, Sequence

    from repro.cluster.partition import ShardMap
    from repro.core.engine import EngineStats
    from repro.core.wsset import WSSet
    from repro.db.confidence import ConfidenceRow
    from repro.db.session import ConfidenceRequest, ConfidenceResult
    from repro.db.urelation import URelation
    from repro.server.client import RetryPolicy


class ClusterSession(ConfidenceAPI):
    """A blocking :class:`ConfidenceAPI` session over many shard servers.

    ``addresses`` are ``(host, port)`` pairs, one per shard, in shard-index
    order (the order the cluster was started with).  ``on_shard_failure``
    picks the degradation mode when a shard stays unreachable after
    retries: ``"fail"`` (default) raises
    :class:`~repro.errors.ShardUnavailableError`; ``"partial"`` lets
    :meth:`confidence_many` answer unaffected slots and place the error
    object in the affected positions.
    """

    def __init__(
        self,
        addresses: "Sequence[tuple[str, int]]",
        *,
        retry: "RetryPolicy | None" = None,
        request_timeout: float | None = None,
        on_shard_failure: str = "fail",
        seed: int | None = None,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-cluster-loop", daemon=True
        )
        self._thread.start()
        self._closed = False
        self._coordinator = ClusterCoordinator(
            addresses,
            retry=retry,
            request_timeout=request_timeout,
            on_shard_failure=on_shard_failure,
            seed=seed,
        )
        try:
            self._run(self._coordinator.start())
        except BaseException:
            self._shutdown()
            raise

    def _run(self, coro):
        if self._closed:
            raise RuntimeError("session is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # ------------------------------------------------------------------
    # ConfidenceAPI
    # ------------------------------------------------------------------
    def query(self, request: "ConfidenceRequest") -> "ConfidenceResult":
        return self._run(self._coordinator.query(request))

    def confidence_many(
        self,
        targets: "Iterable[WSSet | URelation | str | ConfidenceRequest]",
        method: str = "exact",
        **options,
    ) -> "list[ConfidenceResult]":
        return self._run(self._coordinator.confidence_many(targets, method, **options))

    def confidence_batch(
        self, relation: "URelation | str", method: str = "exact", **options
    ) -> "list[ConfidenceRow]":
        return self._run(
            self._coordinator.confidence_batch(relation, method, **options)
        )

    def what_if(
        self,
        target: "WSSet | URelation | str",
        variable,
        ps: "Iterable[float]",
        *,
        value=None,
        deadline_ms: float | None = None,
    ) -> list[float]:
        return self._run(
            self._coordinator.what_if(
                target, variable, list(ps), value=value, deadline_ms=deadline_ms
            )
        )

    def statistics(self) -> "EngineStats":
        return self._run(self._coordinator.statistics())

    @property
    def stats(self) -> "EngineStats":
        """Alias of :meth:`statistics`, matching the other session types."""
        return self.statistics()

    # ------------------------------------------------------------------
    # Cluster observability
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._run(self._coordinator.health())

    def server_stats(self) -> dict:
        return self._run(self._coordinator.server_stats())

    def metrics(self) -> dict:
        return self._run(self._coordinator.metrics_snapshot())

    @property
    def shard_map(self) -> "ShardMap":
        return self._coordinator.shard_map

    @property
    def addresses(self) -> list[str]:
        return self._coordinator.addresses

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self._coordinator.close(), self._loop
            ).result()
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        self._closed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._loop.close()

    def __enter__(self) -> "ClusterSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self.addresses)} shards"
        return f"ClusterSession({state})"
