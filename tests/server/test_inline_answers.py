"""The server answers cached requests on its event loop, and says so.

A request the warm engine resolves in one frame is decoded, answered and
encoded on the loop thread (``inline_answers_total`` in the ``stats`` frame,
``repro_server_inline_answers_total{op=...}`` in the metrics); everything
else takes the pool-member route it always took.  Either way the reply is
the same frame, and the loop never waits on the engine.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.wsset import WSSet
from repro.db.session import ConfidenceRequest, Session
from repro.errors import UnknownRelationError
from repro.server import connect

#: Reply fields that are measurements, not answers.
ENGINE_TIMES = ("wall_time", "circuit_compile_time", "circuit_eval_time")


@pytest.fixture
def served(hard_database):
    """``(database, queries)``: six overlapping 24-descriptor ws-sets of ``HARD``."""
    database, descriptors = hard_database(96, seed=5)
    return database, [WSSet(descriptors[8 * i : 8 * i + 24]) for i in range(6)]


def inline(session) -> int:
    return session.server_stats()["server"]["inline_answers_total"]


def inline_counter(session, op: str) -> int:
    key = f'repro_server_inline_answers_total{{op="{op}"}}'
    return session.metrics()["counters"].get(key, 0)


def one_reply(session, args: dict) -> dict:
    """The raw reply payload of a one-request ``confidence_many`` frame."""
    (reply,) = session._call("confidence_many", {"requests": [args]})["results"]
    return reply


def answer(payload: dict) -> dict:
    """A reply payload minus its measured times."""
    stripped = {key: value for key, value in payload.items() if key != "wall_time"}
    stripped["stats"] = {
        key: value
        for key, value in payload["stats"].items()
        if key not in ENGINE_TIMES
    }
    return stripped


@pytest.mark.parametrize(
    "options",
    [{}, {"method": "hybrid"}, {"deadline_ms": 5_000.0}],
    ids=["exact", "hybrid", "deadline"],
)
def test_inline_reply_is_the_worker_reply_field_for_field(running_server, served, options):
    database, queries = served
    request = ConfidenceRequest(queries[0], **options)
    args = request.to_payload()
    with running_server(database, pool_size=1) as server:
        with connect(server.host, server.port) as session:
            session.query(request)  # cold: computed on the worker
            worker = one_reply(session, dict(args, trace=True))
            assert inline(session) == 0
            probed = one_reply(session, args)
            assert inline(session) == 1
    worker.pop("trace")
    # Same keys in the same order, same values — but for the counters the
    # one extra hit moved, by exactly what one worker hit moves them.
    assert list(probed) == list(worker)
    assert list(probed["stats"]) == list(worker["stats"])
    moved = {"computations": 1, "frames": 1, "memo_hits": 1}
    expected = answer(worker)
    for key, step in moved.items():
        expected["stats"][key] += step
    expected["stats"]["memo_hit_rate"] = probed["stats"]["memo_hit_rate"]
    assert answer(probed) == expected
    assert probed["method"] == "exact"
    assert probed["requested_method"] == request.method


def test_hot_requests_count_inline_per_op_and_the_rest_do_not(running_server, served):
    database, queries = served
    with Session(database.copy()) as local:
        expected = [local.confidence(query).value for query in queries]
    with running_server(database) as server:
        with connect(server.host, server.port) as session:
            # Cold, then traced / sampled / named / swept: never inline.
            assert session.confidence(queries[0]).value == expected[0]
            session.confidence(queries[0], trace=True)
            session.confidence(queries[0], "karp_luby", seed=3)
            session.confidence(queries[0], "montecarlo", seed=3, epsilon=0.3)
            session.confidence("HARD", "karp_luby", seed=3)
            variable = sorted(queries[0].variables())[0]
            session.what_if(queries[0], variable, [0.25, 0.5])
            session.what_if(queries[0], variable, [0.25, 0.5])
            assert inline(session) == 0
            # Hot: inline, bit-identical.
            assert session.confidence(queries[0]).value == expected[0]
            assert session.confidence(queries[0], "hybrid").value == expected[0]
            assert inline(session) == 2
            assert inline_counter(session, "confidence_many") == 2
            # A batch answers its hits inline and fans out only the misses.
            batch = session.confidence_many([queries[1], queries[0], queries[2], queries[0]])
            assert [result.value for result in batch] == [
                expected[1], expected[0], expected[2], expected[0],
            ]
            assert inline_counter(session, "confidence_many") == 4
            batch = session.confidence_many(queries[:3])
            assert [result.value for result in batch] == expected[:3]
            assert inline_counter(session, "confidence_many") == 7
            assert inline(session) == 7
            # After clear_cache() there is nothing to hit until a worker
            # has rebuilt and refilled the engine.
            server.server.session.clear_cache()
            assert session.confidence(queries[0]).value == expected[0]
            assert inline(session) == 7
            assert session.confidence(queries[0]).value == expected[0]
            assert inline(session) == 8


def test_batch_errors_stay_all_or_nothing_with_inline_hits(running_server, served):
    database, queries = served
    with running_server(database) as server:
        with connect(server.host, server.port) as session:
            session.confidence(queries[0])
            with pytest.raises(UnknownRelationError):
                session.confidence_many([queries[0], "NO_SUCH_RELATION", queries[1]])
            # The connection and the server are fine, and the batch's
            # other requests were still computed (and cached) before the
            # error was sent.
            hits = inline(session)
            assert session.confidence(queries[1]).value > 0.0
            assert inline(session) == hits + 1


def test_an_armed_slow_query_threshold_keeps_the_fast_path(running_server, served):
    database, queries = served
    with running_server(database, slow_query_ms=60_000.0) as server:
        with connect(server.host, server.port) as session:
            cold = session.confidence(queries[0])
            hot = session.confidence(queries[0])
            assert inline(session) == 1
            assert cold.trace is None and hot.trace is None
            assert hot.value == cold.value
            # A client-requested trace still takes (and gets) the traced route.
            assert session.confidence(queries[0], trace=True).trace is not None
            assert inline(session) == 1


def test_the_loop_never_waits_for_a_held_engine_lock(running_server, served):
    database, queries = served
    with running_server(database) as server:
        with connect(server.host, server.port) as session, connect(
            server.host, server.port
        ) as observer:
            expected = session.confidence(queries[0]).value
            handle = server.server.session.handle
            answers = []
            caller = threading.Thread(
                target=lambda: answers.append(session.confidence(queries[0]).value)
            )
            with handle._lock:  # a long computation on some worker thread
                caller.start()
                deadline = time.monotonic() + 5.0
                while observer.health()["inflight"] < 2:  # the observer's own + 1
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                for _ in range(5):
                    started = time.monotonic()
                    assert observer.health()["status"] == "ok"
                    assert observer.ping()["pong"] is True
                    assert time.monotonic() - started < 0.1
                assert not answers  # declined inline, parked on the worker
                assert inline(observer) == 0
            caller.join(10)
            assert answers == [expected]
            assert inline(observer) == 0
            assert session.confidence(queries[0]).value == expected
            assert inline(observer) == 1


def test_first_read_after_an_assert_is_never_a_stale_inline_hit(running_server, served):
    database, queries = served
    with running_server(database) as server:
        with connect(server.host, server.port) as session:
            prior = session.confidence(queries[0]).value
            assert session.confidence(queries[0]).value == prior
            assert inline(session) == 1
            session.execute("assert select true from HARD where ID < 2")
            rows = list(server.server.database.relation("HARD").descriptors())
            target = WSSet(rows[:24])
            with Session(server.server.database.copy()) as fresh:
                expected = fresh.confidence(target).value
            assert session.confidence(target).value == expected
            assert session.confidence(target).value == expected
            assert inline(session) == 2
