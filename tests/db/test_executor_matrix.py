"""Cross-executor property tests: serial and process agree to the bit.

Both execution backends evaluate exactly the computations the serial engine
would run below its top-level ⊗-node and merges them in deterministic order,
so the results must be *equal*, not approximately equal — on the Figure 11a
workload, on multi-component instances, and across conditioning.  Seeded
approximate requests must stay reproducible when the exact leg runs on the
process pool, and a worker exception must neither poison the pool nor lose
its type on the way back.
"""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from repro.core.engine import EngineHandle
from repro.core.probability import ExactConfig, probability
from repro.core.wsset import WSSet
from repro.db.database import ProbabilisticDatabase
from repro.db.session import ConfidenceRequest, Session
from repro.errors import BudgetExceededError
from repro.workloads.hard import HardCaseParameters, generate_hard_instance
from repro.workloads.random_instances import random_world_table

EXECUTOR_MATRIX = ("serial", "process")

#: ``workers`` values no pool size can mean (``None`` and ``0`` mean serial).
INVALID_WORKERS = (-1, 1.5, "2", True)
INVALID_WORKER_IDS = ("negative", "float", "string", "bool")


def multi_component_instance(seed, *, groups=5, group_size=4, per_group=5):
    """A ws-set over ``groups`` variable-disjoint groups (⊗-components)."""
    rng = random.Random(seed)
    world_table = random_world_table(
        rng, num_variables=groups * group_size, max_domain_size=3
    )
    variables = list(world_table.variables)
    descriptors = []
    for index in range(groups):
        group = variables[index * group_size : (index + 1) * group_size]
        for _ in range(per_group):
            chosen = rng.sample(group, rng.randint(2, min(3, len(group))))
            descriptors.append(
                {v: rng.choice(list(world_table.domain(v))) for v in chosen}
            )
    return world_table, WSSet(descriptors)


def figure11a_instance(seed=0, num_descriptors=48):
    return generate_hard_instance(
        HardCaseParameters(
            num_variables=16,
            alternatives=2,
            descriptor_length=4,
            num_descriptors=num_descriptors,
            seed=seed,
        )
    )


class TestBitIdenticalAcrossExecutors:
    @pytest.mark.parametrize("seed", range(4))
    def test_multi_component_instances(self, seed, process_session_factory):
        world_table, ws_set = multi_component_instance(300 + seed)
        serial = probability(ws_set, world_table)
        process_value = process_session_factory(world_table).confidence(ws_set).value
        assert process_value == serial

    @pytest.mark.parametrize("seed", range(3))
    def test_figure11a_instances(self, seed, process_session_factory):
        instance = figure11a_instance(seed)
        serial = probability(instance.ws_set, instance.world_table)
        process_value = (
            process_session_factory(instance.world_table)
            .confidence(instance.ws_set)
            .value
        )
        assert process_value == serial

    def test_figure11a_slices_repeat_from_the_parent_memo(
        self, process_session_factory
    ):
        instance = figure11a_instance(1, num_descriptors=64)
        descriptors = list(instance.ws_set)
        queries = [WSSet(descriptors[i * 8 : i * 8 + 24]) for i in range(5)]
        serial = Session(instance.world_table)
        expected = [serial.confidence(query).value for query in queries]
        session = process_session_factory(instance.world_table)
        first = [session.confidence(query).value for query in queries]
        second = [session.confidence(query).value for query in queries]
        assert first == expected
        assert second == expected
        stats = session.stats
        assert stats.executor == "process"
        assert stats.memo_hits >= len(queries)  # the repeat pass hit the memo

    def test_conditioning_workload_across_executors(self, process_session_factory):
        values = {}
        for executor in EXECUTOR_MATRIX:
            database = ProbabilisticDatabase()
            database.world_table.add_variable("j", {1: 0.2, 7: 0.8})
            database.world_table.add_variable("b", {4: 0.3, 7: 0.7})
            relation = database.create_relation("R", ("SSN", "NAME"))
            relation.add({"j": 1}, (1, "John"))
            relation.add({"j": 7}, (7, "John"))
            relation.add({"b": 4}, (4, "Bill"))
            relation.add({"b": 7}, (7, "Bill"))
            if executor == "process":
                session = process_session_factory(database)
            else:
                session = Session(database)
            session.execute(
                "assert select true from R r1, R r2 where r1.NAME = 'John' "
                "and r2.NAME = 'Bill' and r1.SSN != r2.SSN"
            )
            result = session.execute("select SSN, conf() from R where NAME = 'Bill'")
            values[executor] = sorted(result.rows)
        assert values["process"] == values["serial"]

    def test_conditioned_database_recomputes_identically(
        self, process_session_factory
    ):
        # After conditioning replaces the world table, the process backend
        # must re-arm its snapshot (new generation) and keep agreeing with a
        # fresh serial session over the posterior database.
        world_table, ws_set = multi_component_instance(310)
        database = ProbabilisticDatabase(world_table)
        relation = database.create_relation("REL", ("ID",))
        for index, descriptor in enumerate(ws_set):
            relation.add(descriptor.as_dict(), (index,))
        session = process_session_factory(database)
        before = session.confidence("REL").value
        assert before == probability(ws_set, database.world_table)
        variable = next(iter(world_table.variables))
        value = world_table.domain(variable)[0]
        database.assert_condition(WSSet([{variable: value}]))
        serial_after = Session(database).confidence("REL").value
        after = session.confidence("REL").value
        assert after == serial_after


class TestSeedsUnderProcessExecutor:
    @pytest.mark.parametrize("method", ["karp_luby", "montecarlo"])
    def test_same_seed_same_estimate(self, method, process_session_factory):
        world_table, ws_set = multi_component_instance(320)
        session = process_session_factory(world_table, epsilon=0.2, delta=0.1)
        first = session.query(ConfidenceRequest(ws_set, method, seed=21))
        second = session.query(ConfidenceRequest(ws_set, method, seed=21))
        assert first.value == second.value
        assert first.iterations == second.iterations

    def test_hybrid_fallback_is_seed_reproducible(self, process_session_factory):
        instance = figure11a_instance(2, num_descriptors=64)
        session = process_session_factory(
            instance.world_table, epsilon=0.2, delta=0.1
        )
        request = ConfidenceRequest(instance.ws_set, "hybrid", seed=5, max_calls=2)
        first = session.query(request)
        session.clear_cache()  # cold again: the exact leg must trip again
        second = session.query(request)
        assert first.fell_back and second.fell_back
        assert first.method == second.method == "karp_luby"
        assert first.value == second.value


class TestPoolRobustness:
    def test_budget_error_is_typed_and_pool_survives(self, process_session_factory):
        instance = figure11a_instance(3, num_descriptors=64)
        session = process_session_factory(instance.world_table)
        expected = probability(instance.ws_set, instance.world_table)
        with pytest.raises(BudgetExceededError):
            session.confidence(instance.ws_set, max_calls=3)
        # The worker that raised is still alive and correct.
        assert session.confidence(instance.ws_set).value == expected

    def test_config_level_budget_applies_to_workers(self):
        # A budget set on the ExactConfig (not per request) must reach the
        # worker processes exactly like it bounds the serial engine.
        instance = figure11a_instance(4, num_descriptors=64)
        session = Session(
            instance.world_table,
            ExactConfig(max_calls=5),
            workers=2,
        )
        try:
            with pytest.raises(BudgetExceededError):
                session.confidence(instance.ws_set)
        finally:
            session.close()

    def test_close_disables_process_parallelism(self):
        world_table, ws_set = multi_component_instance(330)
        session = Session(world_table, workers=2)
        first = session.confidence(ws_set).value
        session.close()
        second = session.confidence(ws_set).value
        assert first == second
        assert session.stats.parallel_computations == 1

    def test_workers_is_the_only_parallelism_switch(self):
        world_table, _ = multi_component_instance(331)
        assert "executor" not in {field.name for field in fields(ExactConfig)}
        with pytest.raises(TypeError):
            ExactConfig(executor="process")
        with pytest.raises(TypeError):
            Session(world_table, executor="process")
        assert Session(world_table).executor == "serial"
        assert Session(world_table, workers=0).executor == "serial"
        with Session(world_table, workers=1) as single:
            assert single.executor == "process"  # one worker is still a pool
        session = Session(world_table, workers=2)
        try:
            assert session.executor == "process"
            assert session.workers == 2
            assert session.stats.executor == "process"
        finally:
            session.close()

    @pytest.mark.parametrize("workers", INVALID_WORKERS, ids=INVALID_WORKER_IDS)
    def test_engine_handle_rejects_invalid_workers(self, workers):
        world_table, _ = multi_component_instance(333)
        with pytest.raises(ValueError, match="workers must be"):
            EngineHandle(world_table, workers=workers)

    @pytest.mark.parametrize("workers", INVALID_WORKERS, ids=INVALID_WORKER_IDS)
    def test_session_rejects_invalid_workers(self, workers):
        world_table, _ = multi_component_instance(333)
        with pytest.raises(ValueError, match="workers must be"):
            Session(world_table, workers=workers)
