"""``Session.cached``: the non-blocking hit probe in front of the worker hop.

A probed answer must be the worker's answer — value, methods, statistics
deltas — and everything the probe cannot answer in one engine frame, or
cannot answer without waiting, must come back ``None`` so that the caller
takes the ordinary route (which must then still answer correctly).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import asdict

import pytest

from repro.core.interned import _PROBE_LIMIT
from repro.core.wsset import WSSet
from repro.db.session import AsyncSession, ConfidenceRequest, Session
from repro.errors import UnknownVariableError

#: Result fields that are measurements, not answers.
TIMES = ("wall_time", "stats")


@pytest.fixture
def warm(hard_database):
    """A session, a 24-descriptor ws-set it has answered, and one it has not."""
    database, descriptors = hard_database()
    session = Session(database)
    hot, cold = WSSet(descriptors[:24]), WSSet(descriptors[30:54])
    session.confidence(hot)
    yield session, hot, cold
    session.close()


def answer(result) -> dict:
    return {key: value for key, value in asdict(result).items() if key not in TIMES}


def delta(before, after) -> tuple[int, int, int]:
    return (
        after.computations - before.computations,
        after.frames - before.frames,
        after.memo_hits - before.memo_hits,
    )


@pytest.mark.parametrize(
    "options",
    [
        {"method": "exact"},
        {"method": "hybrid"},
        {"method": "exact", "deadline_ms": 50.0},
        {"method": "hybrid", "deadline_ms": 50.0, "epsilon": 0.2},
        # A hit needs no budget: limits that would starve a cold computation
        # do not disqualify it, exactly as on the worker path.
        {"method": "hybrid", "max_calls": 1},
        {"method": "exact", "max_calls": 1, "time_limit": 60.0},
    ],
    ids=lambda options: "-".join(f"{k}={v}" for k, v in options.items()),
)
def test_probed_hit_equals_the_worker_hit(warm, options):
    session, hot, _ = warm
    request = ConfidenceRequest(hot, **options)
    start = session.statistics()
    worker = session.query(request)
    probed = session.cached(request)
    assert probed is not None
    assert answer(probed) == answer(worker)
    assert probed.method == "exact" and probed.requested_method == request.method
    # One probed hit books what one worker hit books.
    assert delta(worker.stats, probed.stats) == delta(start, worker.stats) == (1, 1, 1)
    assert probed.stats == session.statistics()
    assert probed.wall_time > 0.0


def test_probed_hit_records_the_request_and_engine_histograms(warm):
    session, hot, _ = warm
    histograms = lambda: session.handle.metrics.snapshot()["histograms"]  # noqa: E731
    request_key = 'repro_session_request_seconds{method="exact"}'
    before = histograms()
    assert session.cached(ConfidenceRequest(hot, "hybrid")) is not None
    after = histograms()
    for key in (request_key, "repro_engine_compute_seconds"):
        assert after[key]["count"] == before[key]["count"] + 1


def test_closed_forms_answer_without_a_memo_entry(warm):
    session, _, cold = warm
    small = WSSet(list(cold)[:4])  # inclusion-exclusion closed form, never cached
    for target in (small, WSSet([])):
        probed = session.cached(ConfidenceRequest(target))
        assert probed is not None
        assert probed.value == Session(session.database.copy()).confidence(target).value


def declines_then_answers(session, request) -> None:
    """The probe says no, counts nothing, and the worker route still answers."""
    before = session.statistics()
    assert session.cached(request) is None
    assert session.statistics() == before
    fresh = Session(session.database.copy()).query(request)
    assert session.query(request).value == fresh.value


def test_declines_a_cold_wsset(warm):
    session, _, cold = warm
    declines_then_answers(session, ConfidenceRequest(cold))
    assert session.cached(ConfidenceRequest(cold)) is not None  # warm by now


def test_declines_after_clear_cache(warm):
    session, hot, _ = warm
    session.clear_cache()
    declines_then_answers(session, ConfidenceRequest(hot))


def test_declines_after_an_in_place_version_bump(warm):
    session, hot, _ = warm
    table = session.database.world_table
    variable = sorted(hot.variables())[0]
    first, second = table.domain(variable)
    table.set_distribution(variable, {first: 0.125, second: 0.875})
    rebuilds = session.statistics().engine_rebuilds
    request = ConfidenceRequest(hot)
    assert session.cached(request) is None
    # The probe left the stale engine alone; the worker route rebuilds it.
    assert session.statistics().engine_rebuilds == rebuilds
    fresh = Session(session.database.copy()).query(request)
    assert session.query(request).value == fresh.value
    assert session.statistics().engine_rebuilds == rebuilds + 1


def test_declines_after_an_assert_until_a_worker_rebound_the_handle(warm):
    session, hot, _ = warm
    database = session.database
    condition = WSSet(list(hot)[:2])
    database.assert_condition(condition)  # behind the session's back
    target = database.relation("HARD").descriptors()
    target = WSSet(list(target)[:24])
    request = ConfidenceRequest(target)
    assert session.cached(request) is None  # handle still bound to the prior
    assert session.query(request).value == Session(database.copy()).query(request).value
    assert session.cached(request) is not None


def test_declines_above_the_size_bound(hard_database):
    database, descriptors = hard_database()
    session = Session(database)
    at, above = WSSet(descriptors[:_PROBE_LIMIT]), WSSet(descriptors[: _PROBE_LIMIT + 1])
    session.confidence(at)
    session.confidence(above)
    assert session.cached(ConfidenceRequest(at)) is not None
    declines_then_answers(session, ConfidenceRequest(above))


@pytest.mark.parametrize(
    "request_of",
    [
        lambda hot: ConfidenceRequest(hot, trace=True),
        lambda hot: ConfidenceRequest(hot, "karp_luby", seed=7),
        lambda hot: ConfidenceRequest(hot, "montecarlo", seed=7, epsilon=0.3),
        lambda hot: ConfidenceRequest("HARD"),
    ],
    ids=["trace", "karp_luby", "montecarlo", "string-target"],
)
def test_declines_what_only_the_worker_route_answers(warm, request_of):
    session, hot, _ = warm
    request = request_of(hot)
    session.query(request)  # however warm
    before = session.statistics()
    assert session.cached(request) is None
    assert session.statistics() == before


def test_declines_for_a_tracing_session(hard_database):
    database, descriptors = hard_database()
    hot = WSSet(descriptors[:24])
    session = Session(database, trace=True)
    session.confidence(hot)
    declines_then_answers(session, ConfidenceRequest(hot))


def test_declines_a_wsset_the_engine_cannot_intern(warm):
    session, hot, _ = warm
    request = ConfidenceRequest(WSSet([*hot, {"no-such-variable": 1}]))
    assert session.cached(request) is None
    with pytest.raises(UnknownVariableError):
        session.query(request)


def test_declines_while_another_thread_holds_the_handle_lock(warm):
    session, hot, _ = warm
    request = ConfidenceRequest(hot)
    held, release = threading.Event(), threading.Event()

    def compute():  # stands in for a long cold computation on a worker
        with session.handle._lock:
            held.set()
            release.wait(10)

    worker = threading.Thread(target=compute)
    worker.start()
    try:
        assert held.wait(10)
        assert session.cached(request) is None  # returns at once, no waiting
    finally:
        release.set()
        worker.join(10)
    assert session.cached(request) is not None


@pytest.mark.parametrize(
    "options",
    [{}, {"workers": 2}],
    ids=["serial", "process"],
)
def test_every_executor_probes_bit_identically_or_misses(hard_database, options):
    database, descriptors = hard_database()
    targets = [WSSet(descriptors[:24]), WSSet(descriptors[40:48]), WSSet(descriptors[:3])]
    with Session(database) as reference, Session(database, **options) as session:
        for target in targets:
            request = ConfidenceRequest(target)
            expected = reference.query(request).value
            assert session.query(request).value == expected
            probed = session.cached(request)
            assert probed is None or probed.value == expected
            assert session.query(request).value == expected
        # Single-component and closed-form ws-sets are memoised whole on
        # every route, so at least those are probe hits everywhere.
        assert session.cached(ConfidenceRequest(targets[2])) is not None


def test_async_session_answers_hits_without_its_worker_thread(warm):
    session, hot, cold = warm

    async def scenario():
        facade = AsyncSession(session)
        try:
            loop_thread = threading.get_ident()
            threads = []
            run = facade._run

            async def spying_run(function, /, *args, **kwargs):
                threads.append(function)
                return await run(function, *args, **kwargs)

            facade._run = spying_run
            first = await facade.query(ConfidenceRequest(hot))
            second = await facade.confidence(hot, "hybrid")
            assert threads == []  # both answered on the loop thread
            missed = await facade.confidence(cold)
            assert len(threads) == 1
            again = await facade.confidence(cold)
            assert len(threads) == 1
            many = await facade.confidence_many([hot, cold])
            assert len(threads) == 1
            assert loop_thread == threading.get_ident()
            return first, second, missed, again, many
        finally:
            facade.close()

    first, second, missed, again, many = asyncio.run(scenario())
    with Session(session.database.copy()) as fresh:
        assert first.value == second.value == many[0].value == fresh.confidence(hot).value
        assert missed.value == again.value == many[1].value == fresh.confidence(cold).value
    assert second.requested_method == "hybrid" and second.method == "exact"


def test_probing_beside_computing_workers_loses_no_update(hard_database):
    """Four threads compute through one session while this thread probes
    it: every probed value is the right one, and the handle's computation
    count — bumped under its lock on both routes — comes out exact, which a
    probe running beside a computation would break."""
    import sys
    import time

    database, descriptors = hard_database()
    targets = [WSSet(descriptors[6 * i : 6 * i + 20]) for i in range(12)]
    with Session(database.copy()) as reference:
        expected = [reference.confidence(target).value for target in targets]
    primary = Session(database)
    worked = [0] * 4
    wrong = []

    # Both probe outcomes, made certain before the stress loop: a target a
    # computation has answered is a hit, and any probe while another thread
    # holds the handle lock is declined.
    assert primary.confidence(targets[0]).value == expected[0]
    worked[0] += 1
    hit = primary.cached(ConfidenceRequest(targets[0]))
    assert hit is not None and hit.value == expected[0]
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with primary.handle._lock:
            held.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(10)
        assert primary.cached(ConfidenceRequest(targets[0])) is None
    finally:
        release.set()
        holder.join(10)
    probed = declined = 1

    stop = time.monotonic() + 1.5

    def work(slot: int) -> None:
        index = slot
        while time.monotonic() < stop:
            index = (index + 5) % len(targets)
            if index == slot:
                primary.clear_cache()  # keep some requests cold
            if primary.confidence(targets[index]).value != expected[index]:
                wrong.append(index)
            worked[slot] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
    try:
        for thread in threads:
            thread.start()
        while time.monotonic() < stop:
            for index, target in enumerate(targets):
                result = primary.cached(ConfidenceRequest(target))
                if result is None:
                    declined += 1
                else:
                    probed += 1
                    assert result.value == expected[index]
    finally:
        for thread in threads:
            thread.join(30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert probed and declined  # both outcomes were exercised
    assert primary.statistics().computations == probed + sum(worked)
    primary.close()
