"""The unified confidence API: one protocol, one codec, one entry point.

Six sessions answer the same calls: in-process
:class:`~repro.db.session.Session` / :class:`~repro.db.session.AsyncSession`,
served :class:`~repro.server.client.ServerSession` /
:class:`~repro.server.client.AsyncServerSession`, and the cluster's
:class:`~repro.cluster.coordinator.ClusterCoordinator` /
:class:`~repro.cluster.session.ClusterSession`.  This module pins down what
they have in common:

* :class:`ConfidenceAPI` — the protocol every session subclasses.  Each
  session implements the primitive calls (``query``, ``confidence_many``,
  ``confidence_batch``, ``what_if``, ``statistics``, ``close``); the derived
  ones — ``confidence``, ``certain_tuples``, ``possible_tuples`` — live here
  once.  The async sessions implement the primitives as awaitables, and
  :func:`_then` lets the derived bodies chain onto either flavour;
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
    primitive calls and inherit ``confidence``, ``certain_tuples`` and
    ``possible_tuples``.
    """

    def query(self, request: "ConfidenceRequest") -> "ConfidenceResult":
        """Answer one :class:`~repro.db.session.ConfidenceRequest`."""
        ...

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
        *, value=None,
    ) -> list[float]:
        """The target's confidence at each point of a probability sweep."""
        ...

    def statistics(self) -> "EngineStats":
        """Aggregate engine statistics (merged across shards for clusters)."""
        ...

    def close(self) -> "None | Awaitable[None]":
        """Release the session's resources."""
        ...


# ----------------------------------------------------------------------
# The confidence-target wire codec
# ----------------------------------------------------------------------
def target_to_payload(target: "WSSet | URelation | str") -> dict:
    """Encode a confidence target for the wire.

    Relation names travel by name (``{"kind": "relation"}``) and are resolved
    against the server's database; ws-sets (and relations passed as objects)
    travel extensionally as sorted assignment-pair lists (``{"kind":
    "wsset"}``).  Variables and values must be JSON-representable (strings,
    numbers, booleans) for the round trip to be faithful.
    """
    if isinstance(target, str):
        return {"kind": "relation", "name": target}
    if isinstance(target, URelation):
        target = target.descriptors()
    if isinstance(target, WSSet):
        return {
            "kind": "wsset",
            "descriptors": [
                [[variable, value] for variable, value in descriptor.sorted_items()]
                for descriptor in target
            ],
        }
    raise TypeError(f"cannot encode {target!r} as a confidence target")


def target_from_payload(payload: dict) -> "WSSet | str":
    """Decode a :func:`target_to_payload` target."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValueError(f"malformed confidence target {payload!r}")
    if payload["kind"] == "relation":
        name = payload.get("name")
        if not isinstance(name, str):
            raise ValueError(f"relation target needs a string name, got {name!r}")
        return name
    if payload["kind"] == "wsset":
        descriptors = payload.get("descriptors")
        if not isinstance(descriptors, list):
            raise ValueError("wsset target needs a list of descriptors")
        return WSSet(
            {variable: value for variable, value in pairs} for pairs in descriptors
        )
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
