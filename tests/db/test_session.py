"""Tests of the session-based confidence service (repro.db.session).

Covers the acceptance criteria of the session API redesign:

* session-vs-standalone equivalence — batched and single-query session
  results agree with per-call :func:`repro.core.probability.probability`
  (fresh config) to 1e-12 on randomized instances;
* the hybrid method demonstrably falls back to Karp-Luby on a #P-hard
  instance under a tiny budget, returning an (ε, δ) error bound;
* :class:`AsyncSession` returns results identical to :class:`Session`;
* the bounded memo cache evicts without changing exact results;
* the SQL executor routes through sessions.
"""

from __future__ import annotations

import asyncio
import random

import pytest

import repro
from repro.core.decompose import BoundedMemo
from repro.core.probability import ExactConfig, probability
from repro.core.wsset import WSSet
from repro.db.database import ProbabilisticDatabase
from repro.db.session import (
    AsyncSession,
    ConfidenceRequest,
    ConfidenceResult,
    Session,
)
from repro.errors import QueryError
from repro.sql.executor import execute, split_statements
from repro.workloads.hard import HardCaseParameters, generate_hard_instance
from repro.workloads.random_instances import (
    random_attribute_level_database,
    random_tuple_independent_database,
    random_world_table,
    random_wsset,
)


def hard_instance(num_variables=16, num_descriptors=64, seed=0):
    return generate_hard_instance(
        HardCaseParameters(
            num_variables=num_variables,
            alternatives=2,
            descriptor_length=4,
            num_descriptors=num_descriptors,
            seed=seed,
        )
    )


# ----------------------------------------------------------------------
# Session vs standalone equivalence
# ----------------------------------------------------------------------
def test_session_confidence_matches_standalone_probability_randomized():
    rng = random.Random(7)
    for trial in range(25):
        world_table = random_world_table(rng, num_variables=6, max_domain_size=3)
        session = Session(world_table)
        for _ in range(4):
            ws_set = random_wsset(rng, world_table, num_descriptors=5, max_length=3)
            expected = probability(ws_set, world_table, ExactConfig())
            result = session.confidence(ws_set)
            assert result.method == "exact"
            assert abs(result.value - expected) < 1e-12


def test_session_batch_matches_per_call_probability_randomized():
    rng = random.Random(13)
    for trial in range(10):
        database = random_tuple_independent_database(rng, num_tuples=8)
        relation = database.relation("R")
        session = database.session()
        batched = {
            row.values: row.confidence
            for row in session.confidence_batch(relation)
        }
        grouped: dict[tuple, list] = {}
        for row in relation:
            grouped.setdefault(row.values, []).append(row.descriptor)
        assert set(batched) == set(grouped)
        for values, descriptors in grouped.items():
            cold = probability(
                WSSet(descriptors), database.world_table, ExactConfig()
            )
            assert abs(batched[values] - cold) < 1e-12


def test_session_batch_matches_per_call_on_attribute_level_database():
    rng = random.Random(99)
    database = random_attribute_level_database(rng, num_entities=4)
    session = database.session()
    batched = session.confidence_batch("R")
    standalone = database.tuple_confidences("R", ExactConfig())
    assert {r.values: r.confidence for r in batched} == pytest.approx(
        {r.values: r.confidence for r in standalone}, abs=1e-12
    )


def test_session_memo_is_shared_across_queries():
    instance = hard_instance(num_descriptors=64)
    session = Session(instance.world_table)
    first = session.confidence(instance.ws_set)
    hits_after_first = session.statistics().memo_hits
    second = session.confidence(instance.ws_set)
    assert second.value == first.value
    # The repeated query is answered from the shared memo: the whole top-level
    # ws-set is a cache hit, so the second computation adds hits, not frames.
    assert session.statistics().memo_hits > hits_after_first
    assert session.statistics().computations == 2


def test_session_statistics_track_frames_and_wall_time():
    instance = hard_instance(num_descriptors=32)
    session = Session(instance.world_table)
    session.confidence(instance.ws_set)
    stats = session.statistics()
    assert stats.computations == 1
    assert stats.frames > 0
    assert stats.wall_time > 0.0
    assert stats.engine_rebuilds == 0


# ----------------------------------------------------------------------
# The unified request interface
# ----------------------------------------------------------------------
def test_session_request_interface_and_method_validation():
    instance = hard_instance(num_descriptors=16)
    session = Session(instance.world_table, seed=5)
    exact = session.query(ConfidenceRequest(instance.ws_set))
    assert isinstance(exact, ConfidenceResult)
    assert exact.is_exact and exact.epsilon is None and exact.iterations is None

    approx = session.query(
        ConfidenceRequest(instance.ws_set, method="karp_luby", epsilon=0.2)
    )
    assert approx.method == "karp_luby"
    assert approx.epsilon == 0.2 and approx.delta == session.delta
    assert approx.iterations > 0
    assert abs(approx.value - exact.value) < 0.25

    with pytest.raises(ValueError, match="unknown method"):
        ConfidenceRequest(instance.ws_set, method="quantum")


def test_session_montecarlo_method_returns_bound():
    instance = hard_instance(num_descriptors=16)
    session = Session(instance.world_table, seed=5)
    result = session.confidence(instance.ws_set, method="montecarlo", epsilon=0.1)
    assert result.method == "montecarlo"
    assert result.epsilon == 0.1 and result.delta == session.delta
    exact = session.confidence(instance.ws_set).value
    assert abs(result.value - exact) < 0.2  # additive (ε, δ) bound, δ slack


def test_session_confidence_many_matches_individual_queries():
    rng = random.Random(3)
    world_table = random_world_table(rng, num_variables=6)
    targets = [random_wsset(rng, world_table, num_descriptors=4) for _ in range(5)]
    session = Session(world_table)
    many = session.confidence_many(targets)
    for target, result in zip(targets, many):
        assert abs(result.value - probability(target, world_table)) < 1e-12


# ----------------------------------------------------------------------
# Hybrid exact/approximate fallback
# ----------------------------------------------------------------------
def test_session_hybrid_falls_back_to_karp_luby_under_tiny_budget():
    instance = generate_hard_instance(
        HardCaseParameters(
            num_variables=64,
            alternatives=2,
            descriptor_length=4,
            num_descriptors=400,
            seed=1,
        )
    )
    session = Session(instance.world_table, seed=11, epsilon=0.1, delta=0.01)
    result = session.confidence(instance.ws_set, method="hybrid", max_calls=200)
    assert result.requested_method == "hybrid"
    assert result.method == "karp_luby"
    assert result.fell_back
    assert "exceeded" in result.fallback_reason
    # The fallback answer carries its (ε, δ) error bound.
    assert result.epsilon == 0.1 and result.delta == 0.01
    assert result.iterations > 0
    assert 0.0 <= result.value <= 1.0 + result.epsilon


def test_session_hybrid_stays_exact_when_budget_suffices():
    instance = hard_instance(num_descriptors=32)
    session = Session(instance.world_table)
    result = session.confidence(instance.ws_set, method="hybrid")
    assert result.method == "exact"
    assert not result.fell_back
    assert result.epsilon is None
    assert (
        abs(result.value - probability(instance.ws_set, instance.world_table)) < 1e-12
    )


def test_adaptive_hybrid_budget_scales_with_instance_size():
    from repro.db.session import (
        DEFAULT_HYBRID_MAX_CALLS,
        HYBRID_BUDGET_FLOOR,
        adaptive_hybrid_budget,
    )

    tiny = adaptive_hybrid_budget(1, 1)
    medium = adaptive_hybrid_budget(64, 16)
    huge = adaptive_hybrid_budget(100_000, 1_000)
    assert tiny == HYBRID_BUDGET_FLOOR
    assert tiny < medium < huge
    # The default-scale budget never exceeds the historical constant ...
    assert huge == DEFAULT_HYBRID_MAX_CALLS
    # ... but the scale knob can push past it (or force an early fallback).
    assert (
        adaptive_hybrid_budget(100_000, 1_000, scale=2.0)
        == 2 * DEFAULT_HYBRID_MAX_CALLS
    )
    assert adaptive_hybrid_budget(64, 16, scale=1e-6) == 1


def test_session_hybrid_scale_knob_forces_fallback():
    instance = hard_instance(num_descriptors=64)
    session = Session(instance.world_table, seed=9)
    exact = session.confidence(instance.ws_set, method="hybrid")
    assert exact.method == "exact" and not exact.fell_back

    # A tiny per-request scale shrinks the adaptive budget to almost nothing,
    # so the same query on a *cold* session falls back to Karp-Luby (on the
    # warm session above it would be answered from the memo within any
    # budget — that is the point of the shared cache).
    scaled = Session(instance.world_table, seed=9).query(
        ConfidenceRequest(instance.ws_set, method="hybrid", hybrid_scale=1e-6)
    )
    assert scaled.fell_back and scaled.method == "karp_luby"

    # confidence() passes the same request field through.
    eager = Session(instance.world_table, seed=9)
    result = eager.confidence(instance.ws_set, method="hybrid", hybrid_scale=1e-6)
    assert result.fell_back and result.method == "karp_luby"


def test_session_hybrid_explicit_budget_overrides_adaptive(monkeypatch):
    import repro.db.session as session_module

    # With an explicit max_calls the adaptive derivation must not run at all.
    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("adaptive budget used despite explicit max_calls")

    monkeypatch.setattr(session_module, "adaptive_hybrid_budget", boom)
    instance = hard_instance(num_descriptors=16)
    session = Session(instance.world_table, seed=2)
    result = session.confidence(instance.ws_set, method="hybrid", max_calls=50_000)
    assert result.method in ("exact", "karp_luby")


def test_session_hybrid_uses_default_budget_when_none_given(monkeypatch):
    # Without any request budget the exact leg still gets the default
    # call budget, so pathological instances cannot hang a budgetless hybrid
    # query.  Shrink the module default so the safety net trips fast; were
    # the default not installed, the exact leg would solve this instance and
    # the assertion on the method would fail.
    import repro.db.session as session_module

    monkeypatch.setattr(session_module, "DEFAULT_HYBRID_MAX_CALLS", 10)
    instance = hard_instance(num_descriptors=128)
    session = Session(instance.world_table, seed=3)
    result = session.confidence(instance.ws_set, method="hybrid")
    assert result.fell_back and result.method == "karp_luby"
    assert result.epsilon is not None


# ----------------------------------------------------------------------
# AsyncSession
# ----------------------------------------------------------------------
def test_async_session_matches_sync_session():
    instance = hard_instance(num_descriptors=48)
    rng = random.Random(21)
    world_table = instance.world_table
    targets = [instance.ws_set] + [
        random_wsset(rng, world_table, num_descriptors=6, max_length=4)
        for _ in range(4)
    ]
    sync_session = Session(world_table)
    expected = [sync_session.confidence(t).value for t in targets]

    async_session = Session(world_table).as_async()
    assert isinstance(async_session, AsyncSession)

    async def run():
        results = await async_session.confidence_many(targets)
        return results, await async_session.statistics()

    results, stats = asyncio.run(run())
    assert [r.value for r in results] == pytest.approx(expected, abs=1e-12)
    assert stats.computations == len(targets)


def test_async_session_executes_sql(ssn_database):
    async_session = ssn_database.async_session()

    async def run():
        boolean = await async_session.execute(
            "select true from R where NAME = 'Bill'"
        )
        script = await async_session.execute_script(
            "select SSN, conf() from R; select true from R where NAME = 'John'"
        )
        return boolean, script

    boolean, script = asyncio.run(run())
    assert boolean.confidence == pytest.approx(1.0)
    assert [result.kind for result in script] == ["confidence", "boolean"]


# ----------------------------------------------------------------------
# Bounded memo cache
# ----------------------------------------------------------------------
def test_session_bounded_memo_evicts_without_changing_results():
    instance = hard_instance(num_descriptors=128)
    reference = probability(instance.ws_set, instance.world_table, ExactConfig())
    session = Session(instance.world_table, ExactConfig(memo_limit=64))
    result = session.confidence(instance.ws_set)
    stats = session.statistics()
    assert abs(result.value - reference) < 1e-12
    assert stats.memo_evictions > 0
    assert stats.memo_size <= 64


def test_session_default_memo_limit_is_installed():
    world_table = hard_instance(num_descriptors=8).world_table
    session = Session(world_table)
    assert session.config.memo_limit is not None
    explicit = Session(world_table, ExactConfig(memo_limit=128))
    assert explicit.config.memo_limit == 128
    unmemoized = Session(world_table, ExactConfig(memoize=False))
    assert unmemoized.config.memo_limit is None


def test_bounded_memo_session_cache_clears_oldest_half():
    memo = BoundedMemo(10)
    for index in range(10):
        memo[index] = float(index)
    memo[10] = 10.0  # triggers eviction down to half, then inserts
    assert len(memo) == 6
    assert memo.evictions == 5
    assert 0 not in memo and 4 not in memo  # the oldest half went
    assert 9 in memo and 10 in memo
    memo[10] = 11.0  # overwriting an existing key never evicts
    assert len(memo) == 6
    with pytest.raises(ValueError):
        BoundedMemo(1)


@pytest.mark.parametrize("time_limit", [None, 3.0])
@pytest.mark.parametrize("deadline_ms", [None, 60_000.0])
@pytest.mark.parametrize("method", ["exact", "hybrid"])
def test_exact_leg_bounds(monkeypatch, method, deadline_ms, time_limit):
    """The ``max_calls`` / ``time_limit`` the exact leg runs under.

    Both methods keep the request's own ``time_limit``; ``hybrid`` falls
    back to the adaptive call budget when no time limit bounds it; a
    deadline grants half of itself and may only tighten a limit already
    set, never widen it.
    """
    from repro.core.engine import EngineHandle
    from repro.db.session import DEADLINE_EXACT_FRACTION, adaptive_hybrid_budget

    calls = []

    def probability(self, ws_set, *, max_calls=None, time_limit=None):
        calls.append((max_calls, time_limit))
        return 0.5

    monkeypatch.setattr(EngineHandle, "probability", probability)
    instance = hard_instance(num_descriptors=8)
    ws_set = instance.ws_set
    session = Session(instance.world_table)
    result = session.confidence(
        ws_set, method, time_limit=time_limit, deadline_ms=deadline_ms
    )
    assert result.value == 0.5 and result.method == "exact"

    adaptive = adaptive_hybrid_budget(len(ws_set), len(ws_set.variables()))
    share = None
    if deadline_ms is not None:
        share = deadline_ms / 1000.0 * DEADLINE_EXACT_FRACTION
    limits = [limit for limit in (time_limit, share) if limit is not None]
    bounded_by_time = time_limit is not None and deadline_ms is None
    max_calls = None if method == "exact" or bounded_by_time else adaptive
    assert calls == [(max_calls, min(limits) if limits else None)]


def test_session_wall_time_covers_approximate_methods():
    instance = hard_instance(num_descriptors=32)
    session = Session(instance.world_table, seed=5)
    approx = session.confidence(instance.ws_set, method="karp_luby")
    assert approx.wall_time > 0.0
    hybrid = Session(instance.world_table, seed=5).confidence(
        instance.ws_set, method="hybrid", max_calls=2
    )
    assert hybrid.fell_back and hybrid.wall_time > 0.0


def test_session_certain_and_possible_tuples(ssn_database):
    relation = ssn_database.relation("R")
    relation.add({}, (0, "Everyone"))  # a certain tuple (empty descriptor)
    session = ssn_database.session()
    assert session.certain_tuples(relation) == [(0, "Everyone")]
    possible = session.possible_tuples(relation, threshold=0.5)
    assert all(row.confidence > 0.5 for row in possible)


# ----------------------------------------------------------------------
# SQL execution through sessions
# ----------------------------------------------------------------------
def test_session_sql_execution_reuses_engine(ssn_database):
    session = ssn_database.session()
    first = session.execute("select true from R where NAME = 'John'")
    second = session.execute("select true from R where NAME = 'John'")
    assert first.confidence == second.confidence
    transient = execute(ssn_database, "select true from R where NAME = 'John'")
    assert transient.confidence == pytest.approx(first.confidence, abs=1e-12)
    assert session.statistics().computations >= 2


def test_session_execute_script_splits_statements(ssn_database):
    results = ssn_database.session().execute_script(
        "select SSN, conf() from R where NAME = 'Bill';\n"
        "select true from R where NAME = 'John';"
    )
    assert [result.kind for result in results] == ["confidence", "boolean"]
    assert results[1].confidence == pytest.approx(1.0)


def test_session_split_statements_respects_string_literals():
    statements = split_statements(
        "select true from R where NAME = 'semi;colon'; select SSN, conf() from R;"
    )
    assert len(statements) == 2
    assert "semi;colon" in statements[0]


def test_session_sql_assert_reconditions_through_session(ssn_database):
    from repro import FunctionalDependency  # noqa: F401  (import check only)

    session = ssn_database.session()
    before = session.execute("select true from R where SSN = 7").confidence
    result = session.execute("assert select true from R where NAME = 'Bill'")
    assert result.kind == "assert"
    after = session.execute("select true from R where SSN = 7").confidence
    assert 0.0 <= before <= 1.0 and 0.0 <= after <= 1.0
    # Conditioning replaced the world table; the long-lived session answers
    # exactly what a fresh session over the posterior database answers.
    with repro.connect(ssn_database.copy()) as fresh:
        assert after == fresh.execute("select true from R where SSN = 7").confidence


def test_session_rejects_foreign_session(ssn_database):
    other = ProbabilisticDatabase()
    other.world_table.add_variable("x", {1: 0.5, 2: 0.5})
    foreign = other.session()
    with pytest.raises(QueryError, match="different database"):
        execute(ssn_database, "select true from R", session=foreign)


def test_session_on_bare_world_table_rejects_sql_and_names():
    world_table = hard_instance(num_descriptors=8).world_table
    session = Session(world_table)
    with pytest.raises(QueryError, match="bare world table"):
        session.execute("select true from R")
    with pytest.raises(QueryError, match="bare world table"):
        session.confidence("R")


# ----------------------------------------------------------------------
# Staleness: sessions observe world-table mutation and conditioning
# ----------------------------------------------------------------------
def test_session_observes_world_table_mutation():
    from repro.db.world_table import WorldTable

    world_table = WorldTable()
    world_table.add_variable("x", {1: 0.5, 2: 0.5})
    session = Session(world_table)
    assert session.confidence(WSSet([{"x": 1}])).value == pytest.approx(0.5)
    world_table.add_variable("y", {1: 0.25, 2: 0.75})
    result = session.confidence(WSSet([{"y": 1}]))
    assert result.value == pytest.approx(0.25)
    assert session.statistics().engine_rebuilds >= 1


def test_session_observes_database_conditioning(ssn_database):
    session = ssn_database.session()
    prior = session.confidence("R").value
    ssn_database.assert_condition(
        ssn_database.relation("R").descriptors()
    )
    posterior = session.confidence("R").value
    assert prior == pytest.approx(1.0)
    assert posterior == pytest.approx(1.0)
    with repro.connect(ssn_database.copy()) as fresh:
        assert posterior == fresh.confidence("R").value


def test_session_read_of_an_unasserted_group_is_a_memo_hit_after_assert():
    from repro.cluster.__main__ import build_cluster_database

    database = build_cluster_database("hardmix:groups=3,n=8,w=12,seed=0")
    group = "select true from HARD where GROUP = {}".format
    with repro.connect(database) as session:
        cold = [session.execute(group(index)).confidence for index in range(3)]
        before = session.statistics()
        session.execute("assert select true from HARD where GROUP = 0 and ID < 2")
        other = session.execute(group(1)).confidence
        after = session.statistics()
        assert other == cold[1]
        # The assert reached group 0 only: the engine and its memo survived,
        # so group 1 is answered without expanding a single new frame.
        assert after.engine_rebuilds == before.engine_rebuilds
        assert after.engine_extensions == before.engine_extensions + 1
        assert after.memo_hits > before.memo_hits
        assert after.frames - before.frames == 1
        asserted = session.execute(group(0)).confidence
    with repro.connect(database.copy()) as fresh:
        assert asserted == fresh.execute(group(0)).confidence != cold[0]
        assert other == fresh.execute(group(1)).confidence
