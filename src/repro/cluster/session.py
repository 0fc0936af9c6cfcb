"""The blocking client facade over a sharded cluster.

:class:`ClusterSession` is the :class:`~repro.db.api.BlockingAdapter` over a
:class:`~repro.cluster.coordinator.ClusterCoordinator`, so code written
against :class:`~repro.db.api.ConfidenceAPI` — or obtained through
:func:`repro.connect` — runs unchanged on an in-process engine, one server,
or a cluster.  The coordinator's ``health``, ``server_stats``, ``metrics``,
``shard_map`` and ``addresses`` come through the adapter as well.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.coordinator import ClusterCoordinator
from repro.db.api import BlockingAdapter

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Sequence

    from repro.server.client import RetryPolicy


class ClusterSession(BlockingAdapter):
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
        # The coordinator validates its arguments before the loop thread
        # starts, so a rejected construction leaves no thread behind.
        coordinator = ClusterCoordinator(
            addresses,
            retry=retry,
            request_timeout=request_timeout,
            on_shard_failure=on_shard_failure,
            seed=seed,
        )
        super().__init__(coordinator, thread_name="repro-cluster-loop")
        try:
            self._run(coordinator.start)
        except BaseException:
            self.close()  # closes any link the failed start had opened
            raise

    stats = property(lambda self: self.statistics(), doc="Alias of :meth:`statistics`.")

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self.addresses)} shards"
        return f"ClusterSession({state})"
