"""Fault-tolerance tests: deadlines, degradation, admission control, chaos.

The contract under test (the tentpole acceptance criterion): every request
ends in exactly one of

* a correct result — bit-identical to the serial answer where the request
  succeeds,
* a typed retryable error (``overloaded`` with ``retry_after_ms``,
  connection loss),
* a typed deadline error (``deadline-exceeded``),

never a hang, a silent wrong answer, or a dead server.  Deadline-constrained
requests that cannot finish exactly degrade to a Karp-Luby (ε, δ) answer
*within* the deadline instead of erroring.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.db.database import ProbabilisticDatabase
from repro.db.session import ConfidenceRequest, Session
from repro.db.urelation import URelation
from repro.errors import DeadlineExceededError, OverloadedError
from repro.server import RetryPolicy, connect
from repro.testing import Fault, faults
from repro.workloads.hard import HardCaseParameters, generate_hard_instance


def hard_database(
    num_variables=16, num_descriptors=48, descriptor_length=4, seed=0
):
    """A Figure 11a instance wrapped as a database with relation ``HARD``."""
    instance = generate_hard_instance(
        HardCaseParameters(
            num_variables=num_variables, alternatives=2,
            descriptor_length=descriptor_length,
            num_descriptors=num_descriptors, seed=seed,
        )
    )
    database = ProbabilisticDatabase(instance.world_table)
    relation = URelation("HARD", ("ID",))
    for index, descriptor in enumerate(instance.ws_set):
        relation.add(descriptor.as_dict(), (index,))
    database.add_relation(relation)
    return database, instance


def heavy_database():
    """An instance whose exact computation reliably blows small budgets."""
    return hard_database(num_variables=64, num_descriptors=400, seed=1)


# ----------------------------------------------------------------------
# Deadlines and graceful degradation (local session)
# ----------------------------------------------------------------------
class TestSessionDeadlines:
    def test_deadline_degrades_exact_to_karp_luby(self):
        database, instance = heavy_database()
        session = Session(database)
        result = session.query(
            ConfidenceRequest(instance.ws_set, deadline_ms=400.0, seed=11)
        )
        assert result.method == "karp_luby"
        assert result.requested_method == "exact"
        assert result.fell_back is True
        assert "deadline" in result.fallback_reason
        assert result.epsilon is not None and result.delta is not None
        # The degraded answer is the *seeded* Karp-Luby answer, exactly.
        expected = Session(database, seed=11).confidence(
            instance.ws_set, method="karp_luby", seed=11
        )
        assert result.value == expected.value

    def test_generous_deadline_still_answers_exactly(self):
        database, instance = hard_database(num_descriptors=24)
        session = Session(database)
        exact = session.confidence(instance.ws_set).value
        result = session.query(
            ConfidenceRequest(instance.ws_set, deadline_ms=60_000.0)
        )
        assert result.method == "exact"
        assert result.fell_back is False
        assert result.value == exact

    def test_hybrid_under_deadline_keeps_its_adaptive_call_budget(self):
        database, instance = heavy_database()
        session = Session(database)
        result = session.query(
            ConfidenceRequest(
                instance.ws_set, method="hybrid", deadline_ms=60_000.0,
                hybrid_scale=1e-6, seed=3,
            )
        )
        # The tiny scale trips the call budget long before the (generous)
        # deadline does: same fallback, different trigger.
        assert result.method == "karp_luby" and result.fell_back

    def test_deadline_ms_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            ConfidenceRequest("R", deadline_ms=0)
        with pytest.raises(ValueError, match="deadline_ms"):
            ConfidenceRequest("R", deadline_ms=-5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline_ms", True),
            ("deadline_ms", "100"),
            ("time_limit", -1),
            ("time_limit", 0.0),
            ("hybrid_scale", -3),
            ("hybrid_scale", False),
            ("max_calls", "x"),
            ("max_calls", 1.5),
            ("max_calls", True),
            ("max_calls", 0),
        ],
    )
    def test_budget_fields_must_be_positive_non_bool_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            ConfidenceRequest("R", **{field: value})
        payload = {"target": {"kind": "relation", "name": "R"}, field: value}
        with pytest.raises(ValueError, match=field):
            ConfidenceRequest.from_payload(payload)

    def test_deadline_round_trips_through_the_wire_codec(self):
        request = ConfidenceRequest("R", deadline_ms=1500.0)
        clone = ConfidenceRequest.from_payload(request.to_payload())
        assert clone.deadline_ms == 1500.0
        assert "deadline_ms" not in ConfidenceRequest("R").to_payload()


# ----------------------------------------------------------------------
# Deadlines over the wire
# ----------------------------------------------------------------------
class TestServerDeadlines:
    def test_deadline_bounded_hard_request_answers_in_time(self, running_server):
        database, instance = heavy_database()
        deadline_ms = 500.0
        with running_server(database) as server:
            with connect(server.host, server.port) as session:
                started = time.monotonic()
                result = session.query(
                    ConfidenceRequest(instance.ws_set, deadline_ms=deadline_ms, seed=7)
                )
                elapsed = time.monotonic() - started
        assert result.fell_back and result.method == "karp_luby"
        # The Karp-Luby estimator is unbiased, not clamped: it may exceed
        # 1.0 by up to its (ε, δ) error for near-certain events.
        assert 0.0 <= result.value <= 1.0 + result.epsilon
        # Within the deadline, with slack for sampling + scheduling noise.
        assert elapsed < 5 * deadline_ms / 1000.0

    def test_expired_deadline_is_a_typed_terminal_error(self, running_server):
        database, instance = hard_database()
        with running_server(database) as server:
            with connect(server.host, server.port) as session:
                with pytest.raises(DeadlineExceededError):
                    session.query(
                        ConfidenceRequest(instance.ws_set, deadline_ms=1e-6)
                    )
                # The error frame left the stream synchronised.
                assert session.ping()["pong"] is True

    def test_server_tightens_a_looser_client_deadline(self, running_server):
        database, instance = heavy_database()
        with running_server(database) as server:
            with connect(server.host, server.port) as session:
                # The frame-level deadline is what the server enforces even
                # though the embedded request asks for the same; the answer
                # must degrade rather than run exact for minutes.
                result = session.confidence(
                    instance.ws_set, deadline_ms=400.0, seed=2
                )
        assert result.fell_back and result.method == "karp_luby"


def _wait_for_consumed_charge(point: str, timeout: float = 5.0) -> None:
    """Block until the fault armed at ``point`` has been taken.

    The injector is shared with the in-process server, so a consumed charge
    is proof the faulted request reached the fault point — e.g. that it is
    inside its admission slot — without sleeping and hoping.
    """
    deadline = time.monotonic() + timeout
    while faults.INJECTOR.charges(point):
        if time.monotonic() >= deadline:
            raise AssertionError(f"fault at {point!r} was never taken")
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Admission control and load shedding
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_saturated_server_sheds_with_retry_after(
        self, running_server, ssn_database
    ):
        with running_server(
            ssn_database, pool_size=1, max_inflight=1, max_queue=0
        ) as server:
            # One in-flight request holds the single admission slot asleep.
            faults.arm("server.dispatch", Fault("delay", seconds=1.0, times=1))
            blocker_done = threading.Event()

            def blocker():
                with connect(server.host, server.port) as session:
                    session.confidence("R")
                blocker_done.set()

            thread = threading.Thread(target=blocker, daemon=True)
            thread.start()
            _wait_for_consumed_charge("server.dispatch")
            # The blocker provably holds the only admission slot (it took the
            # delay fault, which fires inside the slot) for the next second.
            with connect(server.host, server.port) as session:
                # Ops that bypass admission still answer while saturated.
                assert session.health()["status"] == "ok"
                with pytest.raises(OverloadedError) as caught:
                    session.confidence("R")
                assert caught.value.retry_after_ms >= 50
                stats = session.server_stats()["server"]
                assert stats["shed_total"] >= 1
                assert stats["max_inflight"] == 1 and stats["max_queue"] == 0
            assert blocker_done.wait(timeout=10)
            thread.join(timeout=10)

    def test_retry_policy_rides_out_the_overload(
        self, running_server, ssn_database
    ):
        with running_server(
            ssn_database, pool_size=1, max_inflight=1, max_queue=0
        ) as server:
            faults.arm("server.dispatch", Fault("delay", seconds=0.5, times=1))
            expected = ssn_database.session().confidence("R").value

            def blocker():
                with connect(server.host, server.port) as session:
                    session.confidence("R")

            thread = threading.Thread(target=blocker, daemon=True)
            thread.start()
            _wait_for_consumed_charge("server.dispatch")
            with connect(
                server.host, server.port,
                retry=RetryPolicy(attempts=8, base_delay=0.1, seed=0),
            ) as session:
                # Shed now, admitted on a later attempt — and the eventual
                # answer is the correct one.
                assert session.confidence("R").value == expected
            thread.join(timeout=10)

    def test_request_deadlines_bound_the_admission_wait_of_a_batch(
        self, running_server, ssn_database
    ):
        with running_server(
            ssn_database, pool_size=1, max_inflight=1, max_queue=4
        ) as server:
            faults.arm("server.dispatch", Fault("delay", seconds=2.0, times=1))

            def blocker():
                with connect(server.host, server.port) as session:
                    session.confidence("R")

            thread = threading.Thread(target=blocker, daemon=True)
            thread.start()
            _wait_for_consumed_charge("server.dispatch")
            # The blocker holds the only slot for two seconds; each call
            # below queues behind it and must give up at its own deadline.
            calls = [
                lambda s: s.query(ConfidenceRequest("R", deadline_ms=100)),
                lambda s: s.confidence_many(["R"], deadline_ms=100),
                lambda s: s.confidence_many([ConfidenceRequest("R", deadline_ms=100)]),
                lambda s: s.confidence_many(
                    [
                        ConfidenceRequest("R", deadline_ms=50),
                        ConfidenceRequest("R", deadline_ms=150),
                    ]
                ),
            ]
            with connect(server.host, server.port) as session:
                for call in calls:
                    started = time.monotonic()
                    with pytest.raises(DeadlineExceededError):
                        call(session)
                    assert time.monotonic() - started < 1.0
            thread.join(timeout=10)

    def test_health_reports_admission_pressure(self, running_server, ssn_database):
        with running_server(
            ssn_database, pool_size=2, max_inflight=3, max_queue=5
        ) as server:
            with connect(server.host, server.port) as session:
                health = session.health()
        assert health["status"] == "ok"
        assert health["max_inflight"] == 3 and health["max_queue"] == 5
        assert health["inflight"] >= 1  # the health request itself
        assert health["protocol"] >= 3


# ----------------------------------------------------------------------
# Chaos: killed workers, dropped frames — correct or typed, never silent
# ----------------------------------------------------------------------
class TestChaos:
    def test_killed_worker_mid_request_still_answers_bit_identically(
        self, running_server
    ):
        database, instance = hard_database(num_descriptors=48)
        serial = Session(database).confidence(instance.ws_set).value
        with running_server(database, workers=2) as server:
            faults.arm("procpool.worker", Fault("kill", times=1))
            with connect(server.host, server.port) as session:
                value = session.confidence(instance.ws_set).value
                assert value == serial
                stats = session.statistics()
                assert stats.worker_retries > 0
                assert stats.pools_rebuilt >= 1
                # The rebuilt pool serves the next request without drama.
                assert session.confidence(instance.ws_set).value == serial
        assert faults.INJECTOR.fired.get("procpool.worker") == 1

    def test_dropped_connection_is_retried_to_the_correct_answer(
        self, running_server, ssn_database
    ):
        expected = ssn_database.session().confidence("R").value
        with running_server(ssn_database) as server:
            with connect(
                server.host, server.port,
                retry=RetryPolicy(attempts=3, base_delay=0.01, seed=1),
            ) as session:
                assert session.confidence("R").value == expected
                # Sever the connection under the next send: the client must
                # reconnect and the answer must not change.
                faults.arm("frame.send", Fault("drop", times=1))
                assert session.confidence("R").value == expected
                assert session.retries == 1

    def test_confidence_many_with_killed_worker_matches_serial(
        self, running_server
    ):
        database, instance = hard_database(num_descriptors=32)
        local = Session(database)
        targets = ["HARD", instance.ws_set]
        expected = [result.value for result in local.confidence_many(targets)]
        with running_server(database, workers=2) as server:
            faults.arm("procpool.worker", Fault("kill", times=1))
            with connect(server.host, server.port) as session:
                results = session.confidence_many(targets)
        assert [result.value for result in results] == expected
