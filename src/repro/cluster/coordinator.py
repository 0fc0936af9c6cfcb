"""The cluster coordinator: one confidence service over many shard servers.

A :class:`ClusterCoordinator` owns one :class:`_ShardLink` per shard address
and answers the full :class:`~repro.db.api.ConfidenceAPI` surface by routing
work along the :class:`~repro.cluster.partition.ShardMap` it bootstraps from
the first reachable shard:

* a target whose components all live on one shard is routed *whole* — the
  shard evaluates exactly what a single node would, so the answer is the
  single node's bit for bit;
* a target spanning shards is evaluated per global component (materialised
  sub-relations for named relations, explicit simplified ws-sets for ad-hoc
  targets), and the component values folded
  flat in the engine's global component order
  (:func:`~repro.core.components.merge_component_values`) — reproducing the
  single-node ⊗ merge exactly;
* ``what_if`` sweeps the component owning the swept variable on its shard
  and folds the other components in as exact constants, point by point in
  the same global order.

Either way the per-shard work of one call leaves in one scatter: one
``confidence_many`` frame per shard, the shards queried concurrently.

Failure semantics: every per-shard call retries under the link's
:class:`~repro.server.client.RetryPolicy` (reconnecting when the connection
broke); a shard that stays unreachable raises
:class:`~repro.errors.ShardUnavailableError` naming it.  With
``on_shard_failure="fail"`` (the default) that error propagates from any
operation; with ``"partial"``, ``confidence_many`` instead answers the
unaffected slots and places the error object in the affected ones — a
single ``query`` / ``confidence`` call raises its slot's error and
``what_if`` always raises, an incomplete scalar being worse than none.

Every public operation and every per-shard request is timed into the
coordinator's :class:`~repro.obs.metrics.MetricsRegistry`
(``repro_cluster_request_seconds{op=}``,
``repro_cluster_shard_request_seconds{shard=}``), merged into the cluster
``metrics`` snapshot alongside the shards' own registries.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.components import (
    merge_component_values,
    simplify_descriptors,
    split_components,
)
from repro.core.engine import EngineStats
from repro.core.wsset import WSSet
from repro.db.api import ConfidenceAPI, confidence_requests
from repro.db.confidence import ConfidenceRow
from repro.db.session import ConfidenceRequest, ConfidenceResult
from repro.db.urelation import URelation
from repro.errors import (
    PartitionError,
    ShardUnavailableError,
    UnknownRelationError,
)
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.server.client import RetryPolicy, _failure_mode, connect_async
from repro.cluster.partition import ShardMap, component_relation_name

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable, Sequence

    from repro.server.client import AsyncServerSession


class _ShardLink:
    """One shard's connection, with retry/reconnect and failure typing.

    All cluster operations are idempotent (confidence computation never
    mutates the shard), so every retryable failure — shed, dropped
    connection, response timeout — is retried under the policy, reconnecting
    when the stream is gone.  Non-retryable errors (typed computation
    errors, protocol violations) propagate as-is; exhausting the policy on
    retryable ones raises :class:`ShardUnavailableError` naming the shard.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: RetryPolicy | None = None,
        request_timeout: float | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._retry = retry if retry is not None else RetryPolicy()
        self._request_timeout = request_timeout
        self._rng = rng if rng is not None else random.Random()
        self._session: "AsyncServerSession | None" = None
        #: Retries performed over this link's lifetime (observability).
        self.retries = 0

    @property
    def address(self) -> str:
        return f"{self._host}:{self._port}"

    async def call(self, method: str, *args, **kwargs):
        """``session.<method>(*args, **kwargs)`` with retry and reconnect."""
        failures = 0
        while True:
            error: Exception
            try:
                if self._session is None:
                    self._session = await connect_async(
                        self._host,
                        self._port,
                        request_timeout=self._request_timeout,
                    )
                return await getattr(self._session, method)(*args, **kwargs)
            except Exception as caught:  # noqa: BLE001 - reclassified below
                error = caught
            retryable, broken = _failure_mode(error)
            if broken:
                await self._teardown()
            if not retryable:
                raise error
            failures += 1
            if failures >= self._retry.attempts:
                raise ShardUnavailableError(
                    f"shard {self.address} unavailable after {failures} "
                    f"attempt{'s' if failures != 1 else ''}: {error}",
                    shard=self.address,
                ) from error
            self.retries += 1
            await asyncio.sleep(
                self._retry.delay_for(
                    failures,
                    retry_after_ms=getattr(error, "retry_after_ms", None),
                    rng=self._rng,
                )
            )

    async def close(self) -> None:
        await self._teardown()

    async def _teardown(self) -> None:
        session, self._session = self._session, None
        if session is not None:
            try:
                await session.close()
            except Exception:  # noqa: BLE001 - closing a broken stream
                pass


@dataclass
class _Route:
    """Where one confidence target's work goes.

    Either ``whole_shard``/``whole_target`` are set (single-shard
    evaluation, bit-identical by construction) or ``component_targets``
    lists ``(shard, target)`` per global component in the engine's
    component order.
    """

    whole_shard: int | None = None
    whole_target: object = None
    component_targets: "list[tuple[int, object]] | None" = None
    #: ``variable -> component index`` (relation routes).
    variable_components: dict | None = None
    #: Per-component variable sets (ad-hoc ws-set routes).
    component_variables: "list[frozenset] | None" = None

    @property
    def split(self) -> bool:
        return self.component_targets is not None

    def component_of(self, variable) -> int | None:
        """Index of the component referencing ``variable``, if any."""
        if self.variable_components is not None:
            return self.variable_components.get(variable)
        if self.component_variables is not None:
            for index, variables in enumerate(self.component_variables):
                if variable in variables:
                    return index
        return None


class ClusterCoordinator(ConfidenceAPI):
    """Route :class:`ConfidenceAPI` calls across the shards of one cluster.

    Async by design — cross-shard fan-out is concurrent I/O.  The blocking
    facade is :class:`~repro.cluster.session.ClusterSession`.
    """

    def __init__(
        self,
        addresses: "Sequence[tuple[str, int]]",
        *,
        retry: RetryPolicy | None = None,
        request_timeout: float | None = None,
        on_shard_failure: str = "fail",
        seed: int | None = None,
    ) -> None:
        if on_shard_failure not in ("fail", "partial"):
            raise ValueError(
                f"on_shard_failure must be 'fail' or 'partial', "
                f"got {on_shard_failure!r}"
            )
        if not addresses:
            raise ValueError("a cluster needs at least one shard address")
        rng = random.Random(seed)
        self._links = [
            _ShardLink(
                host, port, retry=retry, request_timeout=request_timeout, rng=rng
            )
            for host, port in addresses
        ]
        self._on_shard_failure = on_shard_failure
        self._map: ShardMap | None = None
        self.registry = MetricsRegistry()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ClusterCoordinator":
        """Bootstrap the shard map from the first reachable shard.

        Every shard serves the identical map, so one answer suffices; shards
        that are down during bootstrap are skipped (they will be retried by
        the first operation that actually needs them).
        """
        last_error: ShardUnavailableError | None = None
        for link in self._links:
            try:
                payload = await link.call("shard_map")
            except ShardUnavailableError as error:
                last_error = error
                continue
            if not payload.get("sharded"):
                raise PartitionError(
                    f"server {link.address} is not serving a shard (it was "
                    f"started without shard info); point connect() at a "
                    f"cluster started via repro.cluster"
                )
            if payload.get("shards") != len(self._links):
                raise PartitionError(
                    f"server {link.address} belongs to a {payload.get('shards')}"
                    f"-shard cluster but {len(self._links)} addresses were given"
                )
            self._map = ShardMap.from_payload(payload["map"])
            return self
        assert last_error is not None
        raise last_error

    async def close(self) -> None:
        await asyncio.gather(*(link.close() for link in self._links))

    @property
    def shard_map(self) -> ShardMap:
        if self._map is None:
            raise RuntimeError("coordinator not started")
        return self._map

    @property
    def addresses(self) -> list[str]:
        return [link.address for link in self._links]

    # ------------------------------------------------------------------
    # Confidence
    # ------------------------------------------------------------------
    async def confidence_many(
        self, targets: "Iterable", method: str = "exact", **options
    ) -> list[ConfidenceResult]:
        """All targets answered with one ``confidence_many`` frame per shard.

        Every slot is routed — whole to one shard, or split into its global
        components — and the legs of all slots go out in one
        :meth:`_scatter`; split slots are merged.  With
        ``on_shard_failure="partial"`` a slot touching an unavailable shard
        carries the :class:`ShardUnavailableError` instance in its position
        instead of failing the whole batch.
        """
        started = time.monotonic()
        try:
            requests = confidence_requests(targets, method, options)
            routes = [self._route(request.target) for request in requests]
            legs: list[tuple[int, ConfidenceRequest]] = []
            for request, route in zip(requests, routes):
                if not route.split:
                    self.registry.counter("repro_cluster_whole_routed_total").inc()
                    legs.append(
                        (route.whole_shard, replace(request, target=route.whole_target))
                    )
                else:
                    self.registry.counter("repro_cluster_split_routed_total").inc()
                    legs.extend(
                        (shard, replace(request, target=target, trace=False))
                        for shard, target in route.component_targets
                    )
            results = iter(await self._scatter(legs))
            merged: list = []
            elapsed = time.monotonic() - started
            for request, route in zip(requests, routes):
                if not route.split:
                    merged.append(next(results))
                    continue
                parts = [next(results) for _ in route.component_targets]
                failed = [part for part in parts if isinstance(part, BaseException)]
                if failed:
                    merged.append(failed[0])
                else:
                    merged.append(self._merge_results(request, parts, elapsed))
            return merged
        finally:
            self.registry.histogram(
                "repro_cluster_request_seconds", op="confidence_many"
            ).record(time.monotonic() - started)

    async def _scatter(
        self, legs: "Sequence[tuple[int, ConfidenceRequest]]", *, partial: bool = True
    ) -> list:
        """The answers to ``(shard, request)`` legs, in leg order.

        Each shard gets one ``confidence_many`` frame with its legs, all
        shards concurrently.  A shard that stays unavailable raises — or,
        under ``on_shard_failure="partial"`` when ``partial`` holds, fills
        its legs with its :class:`ShardUnavailableError`.
        """
        positions: dict[int, list[int]] = {}
        for position, (shard, _) in enumerate(legs):
            positions.setdefault(shard, []).append(position)
        shards = sorted(positions)
        answers = await asyncio.gather(
            *(
                self._timed(
                    shard,
                    "confidence_many",
                    [legs[position][1] for position in positions[shard]],
                )
                for shard in shards
            ),
            return_exceptions=True,
        )
        results: list = [None] * len(legs)
        for shard, answer in zip(shards, answers):
            if isinstance(answer, BaseException):
                if not (
                    partial
                    and self._on_shard_failure == "partial"
                    and isinstance(answer, ShardUnavailableError)
                ):
                    raise answer
                answer = [answer] * len(positions[shard])
            for position, result in zip(positions[shard], answer):
                results[position] = result
        return results

    def _merge_results(
        self,
        request: ConfidenceRequest,
        results: "Sequence[ConfidenceResult]",
        wall_time: float,
    ) -> ConfidenceResult:
        """Fold per-component results into one, engine ⊗-merge semantics.

        The value fold is flat and in global component order — bit-identical
        to the single-node merge when every leg answered exactly.  Metadata
        merges conservatively: any fallback marks the whole answer, the
        loosest (ε, δ) bound wins, iterations add up.
        """
        value = merge_component_values([result.value for result in results])
        method = "exact"
        for result in results:
            if result.method != "exact":
                method = result.method
                break
        epsilons = [r.epsilon for r in results if r.epsilon is not None]
        deltas = [r.delta for r in results if r.delta is not None]
        iteration_counts = [
            r.iterations for r in results if r.iterations is not None
        ]
        return ConfidenceResult(
            value=value,
            method=method,
            requested_method=request.method,
            epsilon=max(epsilons) if epsilons else None,
            delta=max(deltas) if deltas else None,
            iterations=sum(iteration_counts) if iteration_counts else None,
            fell_back=any(r.fell_back for r in results),
            fallback_reason=next(
                (r.fallback_reason for r in results if r.fallback_reason), None
            ),
            wall_time=wall_time,
            stats=EngineStats.merged(r.stats for r in results),
        )

    # ------------------------------------------------------------------
    # What-if sweeps
    # ------------------------------------------------------------------
    async def what_if(
        self, target, variable, ps, *, value=None, deadline_ms: float | None = None
    ) -> list[float]:
        """``P(target)`` at every sweep point, merged across shards.

        The component referencing the swept variable is swept on its owning
        shard (compiled circuit, one frame); every other component
        contributes its exact confidence as a per-point constant.  The fold
        per point is flat in global component order, so the answer matches a
        single node's sweep bit for bit.  Always fail-fast — a sweep with a
        silently missing component would be quietly wrong.
        """
        started = time.monotonic()
        try:
            route = self._route(target)
            if route.split:
                components = route.component_targets
                swept = route.component_of(variable)
            else:
                # A swept variable on another shard cannot be referenced by
                # the target: the sweep is a constant line at the target's
                # exact confidence (what a single node's circuit answers).
                components = [(route.whole_shard, route.whole_target)]
                owner = self.shard_map.shard_of(variable)
                swept = 0 if owner == route.whole_shard else None
            points = [float(p) for p in ps]
            options = {"deadline_ms": deadline_ms} if deadline_ms else {}
            calls = [
                self._scatter(
                    [
                        (shard, ConfidenceRequest(component, "exact", **options))
                        for index, (shard, component) in enumerate(components)
                        if index != swept
                    ],
                    partial=False,
                )
            ]
            if swept is not None:
                shard, component = components[swept]
                calls.append(
                    self._timed(
                        shard,
                        "what_if",
                        component,
                        variable,
                        points,
                        value=value,
                        deadline_ms=deadline_ms,
                    )
                )
            results, *sweep = await asyncio.gather(*calls)
            values = (result.value for result in results)
            constants = [
                None if index == swept else next(values)
                for index in range(len(components))
            ]
            if swept is None:
                return [merge_component_values(constants)] * len(points)
            return [
                merge_component_values(
                    [
                        point if index == swept else constant
                        for index, constant in enumerate(constants)
                    ]
                )
                for point in sweep[0]
            ]
        finally:
            self.registry.histogram(
                "repro_cluster_request_seconds", op="what_if"
            ).record(time.monotonic() - started)

    # ------------------------------------------------------------------
    # Batch
    # ------------------------------------------------------------------
    async def confidence_batch(
        self, relation: "URelation | str", method: str = "exact", **options
    ) -> list[ConfidenceRow]:
        """``conf()`` per distinct value tuple, merged across shards.

        A relation *name* fans one ``confidence_batch`` out per shard; a
        value's per-shard confidences combine as ``1 − Π_s (1 − v_s)``
        (its descriptor sets on different shards are variable-disjoint,
        hence independent), and rows come back in the relation's global
        first-appearance order (the map's ``batch_order``).  A value whose
        rows all live on one shard keeps that shard's — the single node's —
        answer verbatim.  A :class:`URelation` *object* is an ad-hoc
        relation the cluster does not hold: its per-value ws-sets are routed
        as ordinary targets through :meth:`confidence_many`.
        """
        started = time.monotonic()
        try:
            if isinstance(relation, URelation):
                grouped = relation.descriptors_by_values()
                results = await self.confidence_many(
                    list(grouped.values()), method, **options
                )
                for result in results:
                    if isinstance(result, BaseException):
                        raise result
                return [
                    ConfidenceRow(values, result.value)
                    for values, result in zip(grouped, results)
                ]
            if relation not in self.shard_map.relations:
                raise UnknownRelationError(relation)
            plan = self.shard_map.relations[relation]
            answers = await asyncio.gather(
                *(
                    self._timed(shard, "confidence_batch", relation, method, **options)
                    for shard in range(len(self._links))
                )
            )
            by_values: dict[tuple, list[float]] = {}
            for rows in answers:
                for row in rows:
                    by_values.setdefault(row.values, []).append(row.confidence)
            ordered: list[tuple] = []
            if plan.batch_order is not None:
                ordered = [values for values in plan.batch_order if values in by_values]
            seen = set(ordered)
            ordered.extend(values for values in by_values if values not in seen)
            return [
                ConfidenceRow(values, merge_component_values(by_values[values]))
                for values in ordered
            ]
        finally:
            self.registry.histogram(
                "repro_cluster_request_seconds", op="confidence_batch"
            ).record(time.monotonic() - started)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    async def health(self) -> dict:
        """Liveness of every shard; ``degraded`` when any is unreachable."""
        answers = await asyncio.gather(
            *(link.call("health") for link in self._links), return_exceptions=True
        )
        shards: dict[str, dict] = {}
        healthy = True
        for link, answer in zip(self._links, answers):
            if isinstance(answer, BaseException):
                healthy = False
                shards[link.address] = {
                    "status": "unreachable",
                    "error": str(answer),
                }
            else:
                shards[link.address] = answer
        return {"status": "ok" if healthy else "degraded", "shards": shards}

    async def server_stats(self) -> dict:
        """Raw per-shard ``stats`` frames, keyed by shard address."""
        answers = await asyncio.gather(
            *(self._timed(shard, "server_stats") for shard in range(len(self._links)))
        )
        return {
            link.address: answer for link, answer in zip(self._links, answers)
        }

    async def statistics(self) -> EngineStats:
        """Engine statistics merged across shards (counters sum, gauges last)."""
        per_shard = await self.server_stats()
        return EngineStats.merged(
            EngineStats.from_dict(stats["engine"]) for stats in per_shard.values()
        )

    async def metrics(self) -> dict:
        """One merged metrics snapshot: every shard plus the coordinator."""
        answers = await asyncio.gather(
            *(self._timed(shard, "metrics") for shard in range(len(self._links)))
        )
        for link in self._links:
            self.registry.counter(
                "repro_cluster_shard_retries_total", shard=link.address
            ).set(link.retries)
        return merge_snapshots(*answers, self.registry.snapshot())

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, target) -> _Route:
        """The route of one target (see the class docstring for semantics)."""
        if isinstance(target, URelation):
            # An ad-hoc relation object is not cluster data; its Boolean
            # projection travels extensionally like any ws-set.
            target = target.descriptors()
        if isinstance(target, str):
            plan = self.shard_map.relations.get(target)
            if plan is None:
                raise UnknownRelationError(target)
            if plan.certain or not plan.components:
                return _Route(whole_shard=plan.home, whole_target=target)
            if not plan.spans_shards:
                return _Route(whole_shard=plan.components[0], whole_target=target)
            return _Route(
                component_targets=[
                    (shard, component_relation_name(target, index))
                    for index, shard in enumerate(plan.components)
                ],
                variable_components=plan.variable_components or {},
            )
        if isinstance(target, WSSet):
            simplified = simplify_descriptors(list(target))
            if not simplified or any(d.is_empty for d in simplified):
                # Empty target (probability 0) or certain target (the
                # nullary descriptor subsumed everything): no variables are
                # involved, any shard computes it with faithful metadata.
                return _Route(whole_shard=0, whole_target=WSSet(simplified))
            components = split_components(simplified)
            shards: list[int] = []
            component_variables: list[frozenset] = []
            for members in components:
                variables = frozenset(
                    variable
                    for descriptor in members
                    for variable in descriptor.variables
                )
                owners = {self.shard_map.shard_of(v) for v in variables}
                if len(owners) > 1:
                    raise PartitionError(
                        f"ws-set component spans shards {sorted(owners)}: its "
                        f"variables never co-occur in the partitioned database, "
                        f"so no single shard can evaluate it"
                    )
                shards.append(next(iter(owners)))
                component_variables.append(variables)
            if len(set(shards)) == 1:
                return _Route(
                    whole_shard=shards[0], whole_target=WSSet(simplified)
                )
            return _Route(
                component_targets=[
                    (shard, WSSet(members))
                    for shard, members in zip(shards, components)
                ],
                component_variables=component_variables,
            )
        raise TypeError(f"cannot route {target!r} as a confidence target")

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    async def _timed(self, shard: int, method: str, *args, **kwargs):
        """One per-shard call, timed and failure-counted into the registry."""
        link = self._links[shard]
        started = time.monotonic()
        try:
            return await link.call(method, *args, **kwargs)
        except ShardUnavailableError:
            self.registry.counter(
                "repro_cluster_shard_failures_total", shard=link.address
            ).inc()
            raise
        finally:
            self.registry.histogram(
                "repro_cluster_shard_request_seconds", shard=link.address
            ).record(time.monotonic() - started)
