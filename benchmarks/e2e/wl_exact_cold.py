"""``exact_cold`` — the paper's headline operation with every cache bypassed."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import repro
from repro import WSSet
from repro.cluster.__main__ import build_cluster_database
from repro.workloads import (
    HardCaseParameters,
    TPCHGenerator,
    generate_hard_instance,
    query_q1,
)

from workload import PROGRAM_TRACE, Depth, Inputs, System, Workload, close_to

#: Hard family: Figure 11a shape.  One op = a 40-descriptor slice of one of
#: 40 independent w=120 ws-sets over n=12 Boolean variables, descriptors of
#: length 4 (~7 ms, ~280 decomposition frames), all in one database.  n=16
#: as in the server workloads costs ~24 ms with a 22% op-to-op spread, and
#: slices of a *single* instance share its luck (+-10% from seed to seed);
#: many small instances give three times the operations per round and a
#: mean that barely depends on the seed.
HARD_SPEC = "hardmix:groups=40,n=12,r=2,s=4,w=120,seed={seed}"
HARD_SLICE = 40
#: Sparse family, half each: s=2 r=4 descriptors over n=4000 variables
#: (250 of w=400), and 250-descriptor slices of the TPC-H Q1 answer at
#: sf=0.001.  Few frames per op; interning and ⊗-partitioning dominate.
SPARSE = HardCaseParameters(
    num_variables=4000, alternatives=4, descriptor_length=2, num_descriptors=400
)
SPARSE_SLICE = 250
TPCH_SCALE = 0.001
#: Operations per round: a fixed count, half hard and half sparse.
OPS = 360


@dataclass(frozen=True)
class Op:
    family: str  # "hard" | "sparse"
    source: int  # index of the session (database) it runs against
    ws_set: WSSet


class _Sessions(System):
    def __init__(self, world_tables) -> None:
        super().__init__()
        self.sessions = [repro.connect(table) for table in world_tables]

    def counters(self) -> dict[str, float]:
        totals = {"frames": 0, "memo_hits": 0, "engine_rebuilds": 0, "computations": 0}
        for session in self.sessions:
            stats = session.statistics()
            for key in totals:
                totals[key] += getattr(stats, key)
        return totals

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        super().close()


class ExactCold(Workload):
    name = "exact_cold"
    block_ops = 12
    commits_expected = True
    depths = (
        Depth(lambda op: ("db.session", "Session.confidence"), None),
        Depth(lambda op: ("core.engine", f"EngineHandle.probability[{op.family}]"), 0),
    )

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        hard = build_cluster_database(HARD_SPEC.format(seed=seed))
        by_group: dict[int, list] = {}
        for row in hard.relation("HARD"):
            by_group.setdefault(row.values[0], []).append(row.descriptor)
        sparse = generate_hard_instance(replace(SPARSE, seed=seed + 1))
        tpch = TPCHGenerator(scale_factor=TPCH_SCALE, seed=seed).generate()
        groups = list(by_group.values())
        sparse_pools = [list(sparse.ws_set), list(query_q1(tpch.database))]
        ops = []
        for index in range(OPS):
            # hard, s=2, hard, TPC-H, ... so every block mixes the families.
            source = (0, 1, 0, 2)[index % 4]
            if source == 0:
                family, size, pool = "hard", HARD_SLICE, groups[index // 2 % len(groups)]
            else:
                family, size, pool = "sparse", SPARSE_SLICE, sparse_pools[source - 1]
            ops.append(Op(family, source, WSSet(rng.sample(pool, min(size, len(pool))))))
        tables = [hard.world_table, sparse.world_table, tpch.database.world_table]
        return Inputs(ops, {"world_tables": tables})

    def reference(self, inputs: Inputs) -> list:
        # The one-shot API: a fresh engine per call, no Session, no handle.
        tables = inputs.data["world_tables"]
        return [repro.probability(op.ws_set, tables[op.source]) for op in inputs.ops]

    def matches(self, answer, expected) -> bool:
        return close_to(answer, expected)

    def self_check(self, seed: int) -> list[str]:
        problems = []
        small_sparse = HardCaseParameters(
            num_variables=6, alternatives=4, descriptor_length=2, num_descriptors=8
        )
        small_hard = HardCaseParameters(
            num_variables=12, alternatives=2, descriptor_length=4, num_descriptors=12
        )
        for label, parameters, size in (("hard", small_hard, 12), ("sparse", small_sparse, 8)):
            instance = generate_hard_instance(replace(parameters, seed=seed))
            ws_set = WSSet(list(instance.ws_set)[:size])
            with repro.connect(instance.world_table) as session:
                value = session.confidence(ws_set).value
            truth = repro.brute_force_probability(ws_set, instance.world_table)
            if abs(value - truth) > 1e-9:
                problems.append(f"exact_cold {label}: {value} != brute force {truth}")
        return problems

    def start(self, inputs: Inputs, depth: int) -> System:
        system = _Sessions(inputs.data["world_tables"])
        # Warm-up: one answer per database, so imports and the world tables'
        # interned id spaces exist before the first timed operation.
        for op in inputs.ops[:4]:
            system.sessions[op.source].confidence(op.ws_set)
        return system

    def execute(self, system, caller, index, op, depth, prepared):
        session = system.sessions[op.source]
        session.clear_cache()
        if depth == 1:
            return session.handle.probability(op.ws_set)
        return session.confidence(op.ws_set, trace=depth == PROGRAM_TRACE).value

    def layer_metrics(self, trace) -> dict[str, float]:
        return {
            **trace.engine_counts(),
            "core.engine.hard_ms": trace.mean_ms(1, lambda op: op.family == "hard"),
            "core.engine.sparse_ms": trace.mean_ms(1, lambda op: op.family == "sparse"),
            "db.session.self_ms": trace.mean_ms(0) - trace.mean_ms(1),
        }

