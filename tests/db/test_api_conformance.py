"""One conformance suite, three deployments: local, server, cluster.

Every :class:`~repro.db.api.ConfidenceAPI` implementation reachable through
:func:`repro.connect` must answer the same calls with the same meanings —
and, for exact computation, the same bits.  The suite is parametrized over
the backend and never branches on it: if a test needs to know which backend
it is running against, the API has leaked.  The async leg asks the same
calls through :meth:`Session.as_async` and :func:`repro.server.connect_async`.
"""

from __future__ import annotations

import asyncio
import inspect

import pytest

import repro
from repro.cluster import LocalCluster
from repro.cluster.__main__ import build_cluster_database
from repro.core.engine import EngineStats
from repro.core.wsset import WSSet
from repro.db.api import PRIMITIVES, AsyncAdapter, BlockingAdapter, ConfidenceAPI
from repro.db.session import ConfidenceRequest, ConfidenceResult, Session
from repro.errors import UnknownVariableError
from repro.server import connect_async

BACKENDS = ("local", "server", "cluster")


@pytest.fixture(scope="module")
def conformance_db():
    return build_cluster_database("hardmix:groups=4,n=8,r=2,s=4,w=6,seed=2")


@pytest.fixture(scope="module")
def reference(conformance_db):
    """Ground truth: a plain in-process session over the same database."""
    return Session(conformance_db)


@pytest.fixture(params=BACKENDS)
def api_session(request, conformance_db):
    """A ConfidenceAPI implementation, always obtained via ``repro.connect``."""
    if request.param == "local":
        session = repro.connect(conformance_db)
        yield session
        session.close()
    elif request.param == "server":
        from repro.cluster.bootstrap import _ShardThread

        thread = _ShardThread(conformance_db, shard_info=None)
        thread.start()
        try:
            with repro.connect(f"{thread.host}:{thread.port}") as session:
                yield session
        finally:
            thread.stop(grace=0.0)
    else:
        with LocalCluster(conformance_db, shards=3) as cluster:
            with repro.connect(
                [f"{host}:{port}" for host, port in cluster.addresses]
            ) as session:
                yield session


class TestConformance:
    def test_implements_the_protocol(self, api_session):
        assert isinstance(api_session, repro.ConfidenceAPI)

    def test_confidence_of_relation_and_wsset(
        self, api_session, reference, conformance_db
    ):
        assert (
            api_session.confidence("HARD").value
            == reference.confidence("HARD").value
        )
        descriptors = list(conformance_db.relation("HARD").descriptors())
        target = WSSet(descriptors[:9])
        result = api_session.confidence(target)
        assert isinstance(result, ConfidenceResult)
        assert result.value == reference.confidence(target).value
        assert result.method == "exact"

    def test_query_accepts_a_confidence_request(
        self, api_session, reference, conformance_db
    ):
        descriptors = list(conformance_db.relation("HARD").descriptors())
        request = ConfidenceRequest(WSSet(descriptors[:7]))
        assert api_session.query(request).value == reference.query(request).value

    def test_confidence_many_preserves_order(
        self, api_session, reference, conformance_db
    ):
        descriptors = list(conformance_db.relation("HARD").descriptors())
        targets = ["HARD", WSSet(descriptors[:4]), WSSet(descriptors[6:16])]
        results = api_session.confidence_many(targets)
        assert [r.value for r in results] == [
            reference.confidence(t).value for t in targets
        ]

    def test_batch_and_tuple_selections(self, api_session, reference):
        rows = api_session.confidence_batch("HARD")
        expected = reference.confidence_batch("HARD")
        assert [(r.values, r.confidence) for r in rows] == [
            (r.values, r.confidence) for r in expected
        ]
        assert api_session.certain_tuples("HARD") == reference.certain_tuples(
            "HARD"
        )
        got = api_session.possible_tuples("HARD", threshold=0.02)
        want = reference.possible_tuples("HARD", threshold=0.02)
        assert [(r.values, r.confidence) for r in got] == [
            (r.values, r.confidence) for r in want
        ]

    def test_what_if_sweep(self, api_session, reference, conformance_db):
        variable = next(iter(conformance_db.world_table.variables))
        points = [0.1, 0.4, 0.8]
        expected = reference.what_if("HARD", variable, points)
        assert api_session.what_if("HARD", variable, points) == expected
        assert (
            api_session.what_if("HARD", variable, points, deadline_ms=60_000)
            == expected
        )

    @pytest.mark.parametrize("method", ["exact", "karp_luby", "montecarlo", "hybrid"])
    def test_unknown_variable_raises_for_every_method(
        self, api_session, conformance_db, method
    ):
        known = next(iter(conformance_db.relation("HARD").descriptors()))
        target = WSSet([known, {"no-such-variable": 1}])
        with pytest.raises(UnknownVariableError):
            api_session.confidence(target, method, seed=1)

    def test_confidence_batch_under_a_deadline(self, api_session, reference):
        rows = api_session.confidence_batch("HARD", deadline_ms=60_000)
        assert [(r.values, r.confidence) for r in rows] == [
            (r.values, r.confidence) for r in reference.confidence_batch("HARD")
        ]

    def test_empty_confidence_many(self, api_session):
        assert api_session.confidence_many([]) == []

    def test_statistics_reports_engine_work(self, api_session):
        api_session.confidence("HARD")
        stats = api_session.statistics()
        assert isinstance(stats, EngineStats)
        assert stats.computations > 0


@pytest.fixture(params=("local", "server"))
def ask_async(request, conformance_db):
    """``ask(call)`` runs ``await call(session)`` on an async ConfidenceAPI."""
    if request.param == "local":
        session = Session(conformance_db)
        facade = session.as_async()
        yield lambda call: asyncio.run(call(facade))
        facade.close()
        session.close()
    else:
        from repro.cluster.bootstrap import _ShardThread

        thread = _ShardThread(conformance_db, shard_info=None)
        thread.start()

        async def served(call):
            async with await connect_async(thread.host, thread.port) as session:
                return await call(session)

        try:
            yield lambda call: asyncio.run(served(call))
        finally:
            thread.stop(grace=0.0)


def _rows(rows):
    return [(row.values, row.confidence) for row in rows]


class TestAsyncConformance:
    def test_implements_the_protocol(self, ask_async):
        async def call(session):
            return isinstance(session, repro.ConfidenceAPI)

        assert ask_async(call)

    def test_confidence_query_and_many(self, ask_async, reference, conformance_db):
        descriptors = list(conformance_db.relation("HARD").descriptors())
        targets = ["HARD", WSSet(descriptors[:4]), WSSet(descriptors[6:16])]
        request = ConfidenceRequest(WSSet(descriptors[:7]))

        async def call(session):
            return (
                (await session.confidence("HARD")).value,
                (await session.query(request)).value,
                [r.value for r in await session.confidence_many(targets)],
                await session.confidence_many([]),
            )

        assert ask_async(call) == (
            reference.confidence("HARD").value,
            reference.query(request).value,
            [reference.confidence(t).value for t in targets],
            [],
        )

    def test_batch_and_tuple_selections(self, ask_async, reference):
        async def call(session):
            return (
                _rows(await session.confidence_batch("HARD")),
                _rows(await session.confidence_batch("HARD", deadline_ms=60_000)),
                await session.certain_tuples("HARD"),
                _rows(await session.possible_tuples("HARD", threshold=0.02)),
            )

        expected = _rows(reference.confidence_batch("HARD"))
        assert ask_async(call) == (
            expected,
            expected,
            reference.certain_tuples("HARD"),
            _rows(reference.possible_tuples("HARD", threshold=0.02)),
        )

    def test_what_if_sweep(self, ask_async, reference, conformance_db):
        variable = next(iter(conformance_db.world_table.variables))
        points = [0.1, 0.4, 0.8]

        async def call(session):
            return await session.what_if("HARD", variable, points)

        assert ask_async(call) == reference.what_if("HARD", variable, points)

    def test_statistics_is_awaitable(self, ask_async):
        async def call(session):
            await session.confidence("HARD")
            return await session.statistics()

        stats = ask_async(call)
        assert isinstance(stats, EngineStats)
        assert stats.computations > 0


def test_adapters_forward_every_primitive():
    """Every non-derived ConfidenceAPI call is forwarded by both adapters —
    a coroutine on the async one, a plain call on the blocking one — so a
    primitive added to the protocol cannot go missing on one backend."""
    derived = {"query", "confidence", "certain_tuples", "possible_tuples", "close"}
    members = {name for name in vars(ConfidenceAPI) if not name.startswith("_")}
    assert set(PRIMITIVES) == members - derived
    for name in PRIMITIVES:
        assert inspect.iscoroutinefunction(getattr(AsyncAdapter, name))
        forward = getattr(BlockingAdapter, name)
        assert callable(forward) and not inspect.iscoroutinefunction(forward)


def test_connect_rejects_nonsense_targets():
    with pytest.raises(ValueError):
        repro.connect([])
    with pytest.raises(TypeError):
        repro.connect(42)
