"""``cluster_fanout`` — a 2-shard cluster behind one ``ClusterSession``."""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass

import repro
from repro import WSSet
from repro.cluster.__main__ import build_cluster_database

import harness
from workload import PROGRAM_TRACE, Depth, Inputs, System, Timed, Workload

GROUPS = 12
SHARDS = 2
SPEC = "hardmix:groups={groups},n=12,r=2,s=4,w=40,seed={seed}"
#: A spanning ws-set takes this many descriptors from each of 4 groups.
PER_GROUP = 10
SPANNING = 4
#: Distinct warmed queries: spanning, then one whole group each.
SPANNING_POOL = 24
BATCH = 12
#: Operations per round (one closed-loop caller).
OPS = 480


@dataclass(frozen=True)
class Op:
    kind: str  # "span" | "group" | "many" | "relation"
    queries: tuple[int, ...] = ()  # indices into the query pool


@dataclass(frozen=True)
class Query:
    """A pool query: the ws-set plus its per-group parts in global order."""

    ws_set: WSSet
    parts: tuple[tuple[int, WSSet], ...]  # (group, that group's descriptors)


class _Cluster(System):
    def __init__(self, spec: str, direct: bool) -> None:
        super().__init__()
        child = harness.Child(
            "repro.cluster",
            ["--shards", str(SHARDS), "--port", "0", "--workload", spec],
            ready=rf"cluster ready \({SHARDS} shards\)",
        )
        self.children.append(child)
        self.extras["cluster.boot_s"] = child.boot_seconds
        addresses = [
            match.group(1)
            for line in child.banner
            if (match := re.fullmatch(r"shard \d+ listening on (\S+:\d+)", line))
        ]
        self.session = None
        self.shards = []
        try:
            self.session = repro.connect(addresses)
            if direct:
                self.shards = [repro.connect(address) for address in addresses]
        except BaseException:
            self.close()
            raise

    def counters(self) -> dict[str, float]:
        snapshot = self.session.metrics()
        counters, histograms = snapshot["counters"], snapshot["histograms"]
        stats = self.session.statistics()
        return {
            "frames": stats.frames,
            "memo_hits": stats.memo_hits,
            "engine_rebuilds": stats.engine_rebuilds,
            "whole": counters.get("repro_cluster_whole_routed_total", 0),
            "split": counters.get("repro_cluster_split_routed_total", 0),
            "shard_requests": sum(
                histogram["count"]
                for key, histogram in histograms.items()
                if key.startswith("repro_cluster_shard_request_seconds")
            ),
        }

    def close(self) -> None:
        for session in (self.session, *self.shards):
            if session is not None:
                session.close()
        super().close()


class ClusterFanout(Workload):
    name = "cluster_fanout"
    block_ops = 30
    served = True
    depths = (
        Depth(lambda op: ("cluster.coordinator", f"ClusterSession {op.kind}"), None),
        Depth(lambda op: ("server", "slowest direct shard round trip"), 0),
        Depth(lambda op: ("core.components", "merge_component_values"), 0),
    )

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        spec = SPEC.format(groups=GROUPS, seed=seed)
        database = build_cluster_database(spec)
        by_group: dict[int, list] = {group: [] for group in range(GROUPS)}
        for row in database.relation("HARD"):
            by_group[row.values[0]].append(row.descriptor)
        pool = []
        for _ in range(SPANNING_POOL):
            groups = sorted(rng.sample(range(GROUPS), SPANNING))
            parts = tuple(
                (group, WSSet(rng.sample(by_group[group], PER_GROUP))) for group in groups
            )
            pool.append(
                Query(WSSet(d for _, part in parts for d in part), parts)
            )
        for group in range(GROUPS):
            whole = WSSet(by_group[group])
            pool.append(Query(whole, ((group, whole),)))
        spanning = range(SPANNING_POOL)
        single = range(SPANNING_POOL, SPANNING_POOL + GROUPS)
        # Exactly 50% spanning, 30% single-group, 10% batches, 10% relation.
        ops = [Op("span", (rng.choice(spanning),)) for _ in range(OPS * 5 // 10)]
        ops += [Op("group", (rng.choice(single),)) for _ in range(OPS * 3 // 10)]
        for _ in range(OPS // 10):
            mixed = rng.sample(spanning, BATCH // 2) + rng.sample(single, BATCH // 2)
            rng.shuffle(mixed)
            ops.append(Op("many", tuple(mixed)))
        ops += [Op("relation")] * (OPS - len(ops))
        rng.shuffle(ops)
        relation = Query(
            database.relation("HARD").descriptors(),
            tuple((group, WSSet(by_group[group])) for group in range(GROUPS)),
        )
        return Inputs(
            ops, {"spec": spec, "database": database, "pool": pool, "relation": relation}
        )

    def reference(self, inputs: Inputs) -> list:
        with repro.connect(inputs.data["database"]) as local:
            return [_ask(local, inputs, op) for op in inputs.ops]

    def matches(self, answer, expected) -> bool:
        return answer == expected  # bit-identical to the single-node Session

    def start(self, inputs: Inputs, depth: int) -> System:
        if depth == 2:
            system = System()
            system.inputs = inputs
            with repro.connect(inputs.data["database"]) as local:
                system.part_values = {
                    id(query): [local.confidence(part).value for _, part in query.parts]
                    for query in (*inputs.data["pool"], inputs.data["relation"])
                }
            return system
        system = _Cluster(inputs.data["spec"], direct=depth == 1)
        try:
            # Warm-up: every pool query and the relation once, so shard
            # engines answer the timed operations from their memos.
            for query in inputs.data["pool"]:
                system.session.confidence(query.ws_set)
            system.session.confidence("HARD")
            if depth == 1:
                shard_map = system.session.shard_map
                system.shard_of_group = {
                    group: shard_map.shard_of(f"g{group}:x0") for group in range(GROUPS)
                }
                for shard in system.shards:
                    shard.ping()
        except BaseException:
            system.close()
            raise
        system.inputs = inputs
        return system

    def execute(self, system, caller, index, op, depth, prepared):
        if depth <= 0:
            return _ask(system.session, system.inputs, op, trace=depth == PROGRAM_TRACE)
        from repro.core.components import merge_component_values

        queries = _queries(system.inputs, op)
        if depth == 2:
            answers = [
                merge_component_values(system.part_values[id(query)]) for query in queries
            ]
            return answers if op.kind == "many" else answers[0]
        # Depth 1: what each shard is asked for, sent straight to that shard,
        # one shard after the other; the op waits for the slowest.
        batches: dict[int, list] = {}
        for slot, query in enumerate(queries):
            for position, (group, part) in enumerate(query.parts):
                batches.setdefault(system.shard_of_group[group], []).append(
                    (slot, position, part)
                )
        values = [[None] * len(query.parts) for query in queries]
        slowest = 0.0
        for shard, entries in batches.items():
            started = time.perf_counter()
            results = system.shards[shard].confidence_many([part for _, _, part in entries])
            slowest = max(slowest, time.perf_counter() - started)
            for (slot, position, _), result in zip(entries, results):
                values[slot][position] = result.value
        answers = [merge_component_values(parts) for parts in values]
        return Timed(answers if op.kind == "many" else answers[0], slowest)

    def layer_metrics(self, trace) -> dict[str, float]:
        ops = len(trace.inputs.ops)
        count = trace.count
        routed = count("whole") + count("split")
        from repro.cluster.partition import partition_database

        database = trace.inputs.data["database"]
        started = time.perf_counter()
        partition_database(database, SHARDS)
        partition_ms = (time.perf_counter() - started) * 1e3
        return {
            **trace.engine_counts(),
            "cluster.partition.partition_ms": partition_ms,
            "cluster.coordinator.self_ms":
                trace.mean_ms(0) - trace.mean_ms(1) - trace.mean_ms(2),
            "cluster.coordinator.split_frac": count("split") / routed if routed else 0.0,
            "cluster.coordinator.fanout_per_op": count("shard_requests") / ops,
            "core.components.merge_us": trace.mean_ms(2) * 1e3,
        }


def _queries(inputs: Inputs, op: Op) -> list[Query]:
    if op.kind == "relation":
        return [inputs.data["relation"]]
    return [inputs.data["pool"][index] for index in op.queries]


def _ask(session, inputs: Inputs, op: Op, trace: bool = False):
    """Issue ``op`` through any ConfidenceAPI session; returns its value(s)."""
    options = {"trace": True} if trace else {}
    if op.kind == "relation":
        return session.confidence("HARD", **options).value
    queries = _queries(inputs, op)
    if op.kind == "many":
        results = session.confidence_many([q.ws_set for q in queries], **options)
        return [result.value for result in results]
    return session.confidence(queries[0].ws_set, **options).value
