"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError`, so user
code can catch a single base class.  Fine-grained subclasses exist for the
situations that callers plausibly want to handle differently (e.g. asserting a
condition that is false in every world vs. referring to an unknown variable).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class WorldTableError(ReproError):
    """Base class for problems with world-table definitions."""


class UnknownVariableError(WorldTableError, KeyError):
    """A world-set descriptor or query refers to a variable not in the world table."""

    def __init__(self, variable: object) -> None:
        super().__init__(variable)
        self.variable = variable

    def __str__(self) -> str:  # KeyError quotes its args; keep a readable message.
        return f"unknown variable: {self.variable!r}"


class UnknownValueError(WorldTableError, KeyError):
    """An assignment maps a variable to a value outside its domain."""

    def __init__(self, variable: object, value: object) -> None:
        super().__init__((variable, value))
        self.variable = variable
        self.value = value

    def __str__(self) -> str:
        return f"value {self.value!r} is not in the domain of variable {self.variable!r}"


class InvalidDistributionError(WorldTableError, ValueError):
    """A variable's alternative probabilities are invalid (negative or do not sum to one)."""


class DescriptorError(ReproError, ValueError):
    """A world-set descriptor is malformed (e.g. not functional)."""


class InconsistentDescriptorError(DescriptorError):
    """An operation required two consistent descriptors but they conflict."""


class SchemaError(ReproError, ValueError):
    """A relational operation was applied to incompatible or unknown schemas."""


class UnknownRelationError(SchemaError):
    """A query refers to a relation that is not part of the database."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownAttributeError(SchemaError):
    """A query refers to an attribute that is not part of the relation schema."""

    def __init__(self, attribute: str, schema: tuple[str, ...] = ()) -> None:
        message = f"unknown attribute: {attribute!r}"
        if schema:
            message += f" (schema is {', '.join(schema)})"
        super().__init__(message)
        self.attribute = attribute
        self.schema = tuple(schema)


class ZeroProbabilityConditionError(ReproError, ValueError):
    """Conditioning was attempted on a condition that holds in no possible world.

    The posterior distribution would be undefined (division by zero), matching
    the paper's requirement that the ws-tree passed to ``cond`` describes a
    *nonempty* world-set.
    """


class ConditioningError(ReproError, RuntimeError):
    """The conditioning algorithm reached an internal inconsistency."""


class QueryError(ReproError, ValueError):
    """A query expression is malformed."""


class SQLSyntaxError(QueryError):
    """The SQL front end could not parse a statement."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class BudgetExceededError(ReproError, RuntimeError):
    """An algorithm exceeded a user-supplied resource budget (time or node count)."""

    def __init__(
        self, message: str, *, elapsed: float | None = None, nodes: int | None = None
    ):
        super().__init__(message)
        self.elapsed = elapsed
        self.nodes = nodes


class WorkerPoolError(ReproError, RuntimeError):
    """The worker pool backing a parallel engine failed outside Python.

    Raised when a process worker dies abruptly (killed, segfault, failed
    spawn) so the executing pool breaks mid-computation.  The backend
    discards the broken pool, rebuilds it, and retries the lost chunks of
    the in-flight computation *once* (tasks are pure and the memo is
    parent-held, so the retry is safe); this error surfaces only when the
    retry breaks the pool again.  Ordinary Python exceptions raised inside
    a worker (budget overruns, unknown variables) do not break the pool and
    re-raise as their own types.
    """


class DeadlineExceededError(ReproError, RuntimeError):
    """A request's deadline expired before an answer could be produced.

    Raised when a ``deadline_ms``-carrying request is already (or becomes)
    hopeless: the deadline elapsed while the request waited for admission,
    or it arrived expired.  Distinct from :class:`BudgetExceededError` —
    a blown *budget* inside a ``hybrid`` request degrades to Karp-Luby,
    whereas a blown *deadline* means no answer of any kind was possible in
    time.  Not retryable: resending the same request with the same deadline
    will fail the same way.
    """

    def __init__(self, message: str, *, deadline_ms: float | None = None) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms


class OverloadedError(ReproError, RuntimeError):
    """The server shed this request: its admission queue is full (or draining).

    Carries ``retry_after_ms`` — the server's estimate of when capacity will
    free up — so a :class:`repro.server.client.RetryPolicy` can back off for
    a sensible interval instead of guessing.  Retryable by construction: the
    request was never admitted, so no state changed.
    """

    def __init__(self, message: str, *, retry_after_ms: int | None = None) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ServerError(ReproError):
    """Base class for confidence-server failures (wire protocol, remote errors)."""


class ProtocolError(ServerError, ValueError):
    """A wire frame violated the protocol: bad framing, encoding, version or schema.

    ``code`` is the machine-readable error code carried by protocol error
    frames (see :mod:`repro.server.protocol` for the full code registry).
    """

    def __init__(self, message: str, *, code: str = "malformed-frame") -> None:
        super().__init__(message)
        self.code = code


class RequestTimeoutError(ServerError):
    """A client-side per-request timeout expired while awaiting a response.

    Client-side only (never travels on the wire): the server may still be
    computing the answer, but this client stopped waiting.  The connection's
    stream is desynchronised after a timeout — the abandoned response could
    arrive at any point — so the client closes the socket; a configured
    reconnect (see :func:`repro.server.client.connect`) opens a fresh one.
    """

    def __init__(self, message: str, *, timeout: float | None = None) -> None:
        super().__init__(message)
        self.timeout = timeout


class RemoteError(ServerError):
    """An error frame from the server whose code maps to no specific local class.

    Keeps the remote ``code`` so callers can still dispatch on it.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class ShardUnavailableError(ServerError):
    """A cluster shard stayed unreachable after the coordinator's retries.

    Carries ``shard`` (the ``host:port`` address of the failed shard) so a
    caller — or the partial-result path of
    :class:`repro.cluster.ClusterCoordinator` — can report exactly which
    slice of the key space is dark.  Raised by the coordinator, not by
    servers; it still has a wire code (``shard-unavailable``) so proxying
    layers can forward it faithfully.
    """

    def __init__(self, message: str, *, shard: str | None = None) -> None:
        super().__init__(message)
        self.shard = shard


class PartitionError(ReproError, ValueError):
    """A target cannot be routed under the cluster's shard partition.

    Raised for ad-hoc ws-set targets whose connected component mixes
    variables owned by different shards: such a component has no shard that
    could evaluate it locally.  Targets derived from the partitioned
    database's own relations never trigger this — the partitioner places
    every descriptor-variable component wholly on one shard.
    """
