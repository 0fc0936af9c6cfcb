"""Unit tests of the process-pool execution backend (:mod:`repro.core.procpool`).

The backend's contract: task units and the id-space snapshot pickle cheaply,
worker-side engines compute exactly what the parent's engine would, chunking
restores component order after cost-ordered dispatch, worker-raised repro errors re-raise with their own
types without hurting the pool, and a pool broken outside Python is rebuilt
with the lost chunks retried once — the computation still succeeds with
bit-identical values, and only a pool that breaks *again* during the retry
surfaces a typed :class:`~repro.errors.WorkerPoolError`.
"""

from __future__ import annotations

import pickle
import random
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import procpool
from repro.core.interned import InternedEngine
from repro.core.probability import ExactConfig
from repro.core.procpool import (
    ProcessPoolBackend,
    SpaceSnapshot,
    _compute_chunk,
    chunk_components,
)
from repro.core.wsset import WSSet
from repro.errors import BudgetExceededError, WorkerPoolError
from repro.workloads.random_instances import random_world_table


def interned_instance(seed, *, groups=4, group_size=4, per_group=6):
    """A multi-⊗-component instance in interned form: (space, components)."""
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
    engine = InternedEngine(world_table, ExactConfig())
    interned = engine.space.intern_wsset(WSSet(descriptors))
    components = engine.components_of(interned)
    return world_table, engine, components


class TestSpaceSnapshot:
    def test_snapshot_pickles_and_preserves_geometry(self):
        world_table, engine, _ = interned_instance(1)
        space = engine.space
        snapshot = SpaceSnapshot.of_space(space, generation=3)
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.generation == 3
        assert clone.shift == space.shift and clone.mask == space.mask
        assert clone.weights == space.weights
        for variable_id in range(len(space.variables)):
            assert clone.domain_size(variable_id) == space.domain_size(variable_id)

    def test_snapshot_weight_matches_space(self):
        _, engine, components = interned_instance(2)
        space = engine.space
        snapshot = SpaceSnapshot.of_space(space, generation=1)
        for component in components:
            for descriptor in component:
                for packed in descriptor:
                    assert snapshot.weight(packed) == space.weight(packed)

    def test_engine_over_snapshot_equals_engine_over_space(self):
        _, engine, components = interned_instance(3)
        snapshot = SpaceSnapshot.of_space(engine.space, generation=1)
        worker_engine = InternedEngine(None, engine.config, space=snapshot)
        for component in components:
            assert worker_engine.run(list(component)) == engine.run(list(component))


class TestChunking:
    def test_empty_and_single(self):
        assert chunk_components([], 4) == []
        assert chunk_components([[("d",)]], 4) == [[0]]

    def test_exact_index_partition_and_batches_nonempty(self):
        components = [[("a",)] * size for size in (5, 1, 1, 7, 2, 2, 1)]
        for workers in (1, 2, 3, 4, 7, 12):
            plan = chunk_components(components, workers)
            assert all(plan)
            scattered = sorted(index for batch in plan for index in batch)
            assert scattered == list(range(len(components)))
            assert len(plan) <= min(
                len(components), workers * procpool.DISPATCH_FACTOR
            )

    def test_largest_first_dispatch_order(self):
        # Costs default to descriptor counts; the plan leads with the batch
        # holding the most expensive component and the straggler sits alone.
        components = [[("a",)] * size for size in (1, 2, 100, 3, 1)]
        plan = chunk_components(components, 2)
        assert plan[0][0] == 2
        assert plan[0] == [2]
        batch_costs = [sum(len(components[i]) for i in batch) for batch in plan]
        assert batch_costs == sorted(batch_costs, reverse=True)

    def test_lpt_balances_by_cost(self):
        # Two workers, dispatch factor capped by component count: the greedy
        # largest-first assignment splits 8+2 / 1×6 only when batches are
        # forced down to two.
        components = [[("a",)] * size for size in (8, 1, 1, 1, 1, 1, 1, 2)]
        costs = [len(c) for c in components]
        plan = chunk_components(components, 1, costs)
        # workers=1 still fans out DISPATCH_FACTOR batches for pipelining.
        assert 1 <= len(plan) <= procpool.DISPATCH_FACTOR
        loads = [sum(costs[i] for i in batch) for batch in plan]
        assert max(loads) <= 8 + 2  # LPT keeps the straggler batch tight

    def test_plan_is_deterministic(self):
        components = [[("a",)] * size for size in (4, 4, 2, 2, 9, 1, 1)]
        first = chunk_components(components, 3)
        assert chunk_components(components, 3) == first


class TestWorkerTask:
    def test_compute_chunk_runs_in_this_process_too(self):
        # The worker function is a plain function: calling it in-process must
        # give exactly the parent engine's values (that is the bit-identical
        # guarantee in miniature).
        _, engine, components = interned_instance(4)
        snapshot = SpaceSnapshot.of_space(engine.space, generation=99)
        results, meta = _compute_chunk(snapshot, engine.config, components, None, None)
        assert [value for value, _ in results] == [
            engine.run(list(component)) for component in components
        ]
        assert all(seconds >= 0.0 for _, seconds in results)
        histograms = meta["metrics"]["histograms"]
        assert histograms["repro_worker_component_seconds"]["count"] == len(components)
        assert meta["spans"] is None  # tracing was not requested

    def test_compute_chunk_budget_is_per_component(self):
        _, engine, components = interned_instance(5, groups=2, per_group=8)
        snapshot = SpaceSnapshot.of_space(engine.space, generation=100)
        with pytest.raises(BudgetExceededError):
            _compute_chunk(snapshot, engine.config, components, 2, None)


class TestBackend:
    @pytest.fixture(scope="class")
    def backend(self):
        backend = ProcessPoolBackend(2)
        yield backend
        backend.close()

    def test_compute_matches_serial_and_reuses_pool(self, backend):
        _, engine, components = interned_instance(6)
        expected = [engine.run(list(component)) for component in components]
        first = backend.compute(engine.space, engine.config, components, None, None)
        second = backend.compute(engine.space, engine.config, components, None, None)
        assert [value for value, _ in first] == expected
        assert [value for value, _ in second] == expected
        assert backend.components_dispatched == 2 * len(components)

    def test_worker_exception_is_typed_and_pool_survives(self, backend):
        _, engine, components = interned_instance(7)
        with pytest.raises(BudgetExceededError):
            backend.compute(engine.space, engine.config, components, 1, None)
        # The pool is still healthy: the same computation succeeds unbudgeted.
        values = backend.compute(engine.space, engine.config, components, None, None)
        assert len(values) == len(components)

    def test_generation_changes_with_space_identity(self, backend):
        world_table, engine, components = interned_instance(8)
        first = backend.snapshot_of(engine.space)
        again = backend.snapshot_of(engine.space)
        assert first is again
        world_table.add_variable("fresh", {0: 0.5, 1: 0.5})
        rebuilt = InternedEngine(world_table, engine.config)
        second = backend.snapshot_of(rebuilt.space)
        assert second.generation > first.generation

    def test_invalidate_mints_a_new_generation(self, backend):
        _, engine, _ = interned_instance(9)
        before = backend.snapshot_of(engine.space)
        backend.invalidate()
        after = backend.snapshot_of(engine.space)
        assert after.generation > before.generation

    def test_empty_components_short_circuit(self, backend):
        _, engine, _ = interned_instance(10)
        assert backend.compute(engine.space, engine.config, [], None, None) == []

    def test_warm_up_loads_the_engine_modules(self):
        # A fresh one-worker pool, so the probe lands on the warmed worker and
        # nothing but warm_up() can have imported the engine there.  The exact
        # kernel is pure Python: warming it must not drag numpy in.
        backend = ProcessPoolBackend(1)
        try:
            backend.warm_up()
            probe = backend._ensure_executor().submit(
                eval,
                "[name in __import__('sys').modules "
                "for name in ('repro.core.interned', 'numpy')]",
            )
            assert probe.result(timeout=30) == [True, False]
        finally:
            backend.close()


class _BrokenExecutor:
    """Stand-in for a pool whose workers were all killed: submit() raises."""

    def submit(self, *args, **kwargs):
        raise BrokenProcessPool("worker died")

    def shutdown(self, *args, **kwargs):
        pass


class TestBrokenPool:
    def test_broken_pool_retries_lost_chunks_and_succeeds(self):
        backend = ProcessPoolBackend(2)
        try:
            _, engine, components = interned_instance(11)
            backend._executor = _BrokenExecutor()
            # The break is absorbed: every chunk was lost, the pool is
            # rebuilt, and the retried computation returns the serial values.
            values = backend.compute(
                engine.space, engine.config, components, None, None
            )
            assert [value for value, _ in values] == [
                engine.run(list(component)) for component in components
            ]
            assert backend.chunk_retries > 0
            assert backend.pools_broken == 1
            # The rebuilt pool is current and healthy for the next call.
            assert backend._executor is not None
            again = backend.compute(
                engine.space, engine.config, components, None, None
            )
            assert [value for value, _ in again] == [value for value, _ in values]
        finally:
            backend.close()

    def test_pool_broken_twice_raises_worker_pool_error(self, monkeypatch):
        backend = ProcessPoolBackend(2)
        try:
            _, engine, components = interned_instance(11)
            # Every executor the backend builds is broken, so the retry leg
            # breaks too and the typed error finally surfaces.
            monkeypatch.setattr(
                backend, "_ensure_executor", lambda: _BrokenExecutor()
            )
            with pytest.raises(WorkerPoolError, match="broke again"):
                backend.compute(engine.space, engine.config, components, None, None)
        finally:
            backend.close()

    def test_sigkilled_worker_recovers_with_bit_identical_values(self):
        # The real thing, not a stand-in: a live worker process is SIGKILLed
        # and the very next computation still returns the serial values.
        from repro.testing import kill_pool_worker

        backend = ProcessPoolBackend(2)
        try:
            _, engine, components = interned_instance(13)
            backend.warm_up()
            kill_pool_worker(backend)
            values = backend.compute(
                engine.space, engine.config, components, None, None
            )
            assert [value for value, _ in values] == [
                engine.run(list(component)) for component in components
            ]
        finally:
            backend.close()

    def test_concurrent_discard_spares_a_rebuilt_pool(self):
        # Two computations racing on the same dead pool: the second discard
        # must be a no-op (identity check), not tear down the replacement.
        backend = ProcessPoolBackend(2)
        try:
            broken = _BrokenExecutor()
            backend._executor = broken
            backend._discard_executor(broken)
            fresh = backend._ensure_executor()
            backend._discard_executor(broken)  # stale reference: ignored
            assert backend._executor is fresh
            assert backend.pools_broken == 1
        finally:
            backend.close()

    def test_worker_pool_error_is_a_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(WorkerPoolError, ReproError)
        assert issubclass(WorkerPoolError, RuntimeError)

    def test_backend_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(0)

    def test_closed_backend_refuses_to_respawn(self):
        # A computation racing close() must get a typed error, not silently
        # spawn a replacement pool that nothing would ever shut down.
        backend = ProcessPoolBackend(2)
        backend.close()
        _, engine, components = interned_instance(12)
        with pytest.raises(WorkerPoolError, match="closed"):
            backend.compute(engine.space, engine.config, components, None, None)
        assert backend._executor is None
