"""Tests for process-pool ⊗-component sessions and per-request seeds.

Parallel evaluation must be *bit-identical* to the serial engine (the merge
is deterministic and each component evaluation is exactly the computation the
serial top-level ⊗-node would run), budgets apply per worker, and the
observability fields (memo hit rate, worker utilisation) must be populated.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import _MIN_PARALLEL_DESCRIPTORS, EngineHandle, EngineStats
from repro.core.probability import ExactConfig, probability
from repro.core.wsset import WSSet
from repro.db.session import ConfidenceRequest, Session
from repro.db.world_table import WorldTable
from repro.errors import BudgetExceededError
from repro.workloads.random_instances import random_world_table


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


class TestParallelComponents:
    @pytest.mark.parametrize("seed", range(8))
    def test_parallel_is_bit_identical_to_serial(self, seed, process_session_factory):
        world_table, ws_set = multi_component_instance(800 + seed)
        serial = probability(ws_set, world_table)
        session = process_session_factory(world_table)
        parallel = session.confidence(ws_set).value
        stats = session.stats
        assert parallel == serial  # exact equality, not approx
        assert stats.parallel_computations == 1
        assert stats.parallel_components >= 2

    def test_single_component_falls_back_to_serial_path(self, process_session_factory):
        world_table = WorldTable()
        for index in range(12):
            world_table.add_variable(f"x{index}", {0: 0.5, 1: 0.5})
        # All descriptors share x0: one component.  Below the dispatch floor
        # it never leaves the parent; at the floor it ships whole.
        small = WSSet(
            [{"x0": 0, f"x{i}": 0} for i in range(1, _MIN_PARALLEL_DESCRIPTORS)]
        )
        large = WSSet([{"x0": 0, f"x{i}": 0} for i in range(1, 12)])
        session = process_session_factory(world_table)
        assert session.confidence(small).value == probability(small, world_table)
        stats = session.stats
        assert stats.computations == 1
        assert stats.parallel_computations == 0
        assert session.handle._backend is None  # no pool was ever needed
        assert session.confidence(large).value == probability(large, world_table)
        stats = session.stats
        assert stats.parallel_computations == 1
        assert stats.parallel_components == 1

    def test_budget_exceeded_propagates_from_workers(self, process_session_factory):
        world_table, ws_set = multi_component_instance(900, groups=4, per_group=8)
        session = process_session_factory(world_table, ExactConfig(max_calls=3))
        with pytest.raises(BudgetExceededError):
            session.confidence(ws_set)

    def test_handle_workers_off_by_default(self):
        world_table, ws_set = multi_component_instance(901)
        handle = EngineHandle(world_table)
        assert handle.workers == 0
        assert handle.probability(ws_set) == pytest.approx(
            probability(ws_set, world_table)
        )

    def test_close_disables_parallelism_without_resurrecting_the_pool(self):
        world_table, ws_set = multi_component_instance(908)
        session = Session(world_table, workers=2)
        first = session.confidence(ws_set).value
        session.close()
        # Still answers correctly, but serially: no new pool is spawned.
        session.clear_cache()
        second = session.confidence(ws_set).value
        assert first == second
        assert session._handle._backend is None
        assert session.stats.parallel_computations == 1

    def test_async_close_releases_only_owned_component_pools(self):
        import asyncio

        from repro.db.session import AsyncSession

        world_table, ws_set = multi_component_instance(909)
        owned = AsyncSession(Session(world_table, workers=2), owns_session=True)
        asyncio.run(owned.confidence(ws_set))
        owned.close()
        assert owned.session._handle._backend is None

        borrowed_session = Session(world_table, workers=2)
        facade = borrowed_session.as_async()
        asyncio.run(facade.confidence(ws_set))
        facade.close()
        # The borrowed session keeps its pool and stays parallel-capable.
        assert borrowed_session._handle._backend is not None
        assert borrowed_session.confidence(ws_set).value is not None
        borrowed_session.close()

    def test_worker_engines_survive_across_computations(self, process_session_factory):
        world_table, ws_set = multi_component_instance(902)
        session = process_session_factory(world_table)
        first = session.confidence(ws_set).value
        second = session.confidence(ws_set).value
        stats = session.stats
        assert first == second
        assert stats.parallel_computations == 2
        assert stats.workers == 2


class TestObservability:
    def test_memo_hit_rate_and_worker_fields(self):
        world_table, ws_set = multi_component_instance(903)
        session = Session(world_table)
        session.confidence(ws_set)
        session.confidence(ws_set)  # the repeat should hit the memo
        stats = session.stats
        assert isinstance(stats, EngineStats)
        assert 0.0 <= stats.memo_hit_rate <= 1.0
        assert stats.memo_hits > 0
        assert stats.workers == 0
        assert stats.worker_utilisation == 0.0

    def test_worker_utilisation_populated_in_parallel_runs(
        self, process_session_factory
    ):
        world_table, ws_set = multi_component_instance(904)
        session = process_session_factory(world_table)
        session.confidence(ws_set)
        stats = session.stats
        assert stats.workers == 2
        assert stats.parallel_components >= 2
        assert stats.worker_utilisation > 0.0

    def test_empty_stats_hit_rate_is_zero(self):
        assert EngineStats().memo_hit_rate == 0.0


class TestPerRequestSeeds:
    @pytest.fixture
    def session(self):
        world_table, ws_set = multi_component_instance(905)
        session = Session(world_table, epsilon=0.2, delta=0.1)
        session._test_ws_set = ws_set
        return session

    @pytest.mark.parametrize("method", ["karp_luby", "montecarlo"])
    def test_same_seed_same_estimate(self, session, method):
        ws_set = session._test_ws_set
        first = session.query(ConfidenceRequest(ws_set, method, seed=21))
        second = session.query(ConfidenceRequest(ws_set, method, seed=21))
        assert first.value == second.value
        assert first.iterations == second.iterations

    def test_request_seed_overrides_session_seed(self):
        world_table, ws_set = multi_component_instance(906)
        seeded_a = Session(world_table, seed=1).query(
            ConfidenceRequest(ws_set, "karp_luby", seed=77, epsilon=0.2, delta=0.1)
        )
        seeded_b = Session(world_table, seed=2).query(
            ConfidenceRequest(ws_set, "karp_luby", seed=77, epsilon=0.2, delta=0.1)
        )
        assert seeded_a.value == seeded_b.value

    def test_hybrid_fallback_uses_request_seed(self):
        world_table, ws_set = multi_component_instance(907)
        session = Session(world_table, epsilon=0.2, delta=0.1)
        request = ConfidenceRequest(ws_set, "hybrid", seed=5, max_calls=2)
        first = session.query(request)
        second = session.query(request)
        assert first.fell_back and second.fell_back
        assert first.method == "karp_luby"
        assert first.value == second.value
