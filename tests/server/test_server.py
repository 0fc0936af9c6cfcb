"""Integration tests of the confidence server and client library.

Covers the acceptance criteria of the server-mode subsystem:

* the client library returns results equal to a local
  :class:`~repro.db.session.Session` for every method (exact to the bit,
  approximate methods seed-for-seed);
* N clients hammering ``confidence`` / ``execute`` concurrently get answers
  bit-identical to a serial local session;
* malformed, oversized and unknown-version frames produce error frames
  without killing the connection or the server;
* memo sharing across connections (one client's computation is another
  client's memo hit);
* the ``python -m repro.server`` CLI boots a workload, serves, and shuts
  down cleanly on SIGTERM.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading

import pytest

from repro.core.wsset import WSSet
from repro.db.session import ConfidenceRequest, Session
from repro.errors import (
    BudgetExceededError,
    ProtocolError,
    SQLSyntaxError,
    UnknownRelationError,
)
from repro.server import connect
from repro.server.protocol import HEADER, PROTOCOL_VERSION
from repro.workloads.hard import HardCaseParameters, generate_hard_instance


def hard_database(num_descriptors=48, seed=0):
    """A Figure 11a instance wrapped as a database with relation ``HARD``."""
    from repro.db.database import ProbabilisticDatabase
    from repro.db.urelation import URelation

    instance = generate_hard_instance(
        HardCaseParameters(
            num_variables=16, alternatives=2, descriptor_length=4,
            num_descriptors=num_descriptors, seed=seed,
        )
    )
    database = ProbabilisticDatabase(instance.world_table)
    relation = URelation("HARD", ("ID",))
    for index, descriptor in enumerate(instance.ws_set):
        relation.add(descriptor.as_dict(), (index,))
    database.add_relation(relation)
    return database, instance


# ----------------------------------------------------------------------
# Session-API mirroring and method equivalence
# ----------------------------------------------------------------------
class TestClientMirrorsSession:
    def test_confidence_and_batch_match_local_session(
        self, running_server, ssn_database
    ):
        local = ssn_database.session()
        expected = local.confidence("R").value
        expected_rows = {
            row.values: row.confidence for row in local.confidence_batch("R")
        }
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                assert session.ping()["pong"] is True
                assert session.confidence("R").value == expected
                rows = {
                    row.values: row.confidence
                    for row in session.confidence_batch("R")
                }
                assert rows == expected_rows
                assert session.certain_tuples("R") == local.certain_tuples("R")
                assert [r.values for r in session.possible_tuples("R", threshold=0.5)] \
                    == [r.values for r in local.possible_tuples("R", threshold=0.5)]

    def test_all_methods_equal_local_session_with_same_seed(self, running_server):
        database, instance = hard_database()
        ws_set = instance.ws_set
        with running_server(database) as server:
            with connect(server.host, server.port) as session:
                for method in ("exact", "karp_luby", "montecarlo", "hybrid"):
                    local = Session(database.world_table, seed=13)
                    expected = local.confidence(ws_set, method=method, seed=13)
                    remote = session.confidence(ws_set, method=method, seed=13)
                    assert remote.value == pytest.approx(expected.value, abs=1e-12)
                    assert remote.method == expected.method
                    assert remote.epsilon == expected.epsilon
                    assert remote.iterations == expected.iterations

    def test_query_request_interface_and_per_request_budget(self, running_server):
        database, instance = hard_database(num_descriptors=64)
        with running_server(database) as server:
            with connect(server.host, server.port) as session:
                # An explicit tiny budget travels in the frame and trips
                # server-side, surfacing as a local BudgetExceededError.
                with pytest.raises(BudgetExceededError):
                    session.query(
                        ConfidenceRequest(instance.ws_set, max_calls=3)
                    )
                # The same budget on a hybrid request falls back instead.
                result = session.query(
                    ConfidenceRequest(
                        instance.ws_set, method="hybrid", max_calls=3, seed=5
                    )
                )
                assert result.fell_back and result.method == "karp_luby"
                # Seeded approximate requests are reproducible over the wire.
                first = session.confidence(
                    instance.ws_set, method="karp_luby", seed=21
                )
                second = session.confidence(
                    instance.ws_set, method="karp_luby", seed=21
                )
                assert first.value == second.value
                assert first.iterations == second.iterations

    def test_sql_execution_and_script(self, running_server, ssn_database):
        expected = ssn_database.session().execute(
            "select SSN, conf() from R where NAME = 'Bill'"
        )
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                result = session.execute(
                    "select SSN, conf() from R where NAME = 'Bill'"
                )
                assert result.kind == expected.kind == "confidence"
                assert result.columns == expected.columns
                assert sorted(result.rows) == sorted(expected.rows)
                script = session.execute_script(
                    "select true from R; select SSN from R where NAME = 'John'"
                )
                assert [r.kind for r in script] == ["boolean", "relation"]
                assert script[0].confidence == pytest.approx(1.0)

    def test_assert_conditions_the_served_database(self, running_server, ssn_database):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                result = session.execute(
                    "assert select true from R r1, R r2 "
                    "where r1.NAME = 'John' and r2.NAME = 'Bill' and r1.SSN != r2.SSN"
                )
                assert result.kind == "assert"
                assert result.confidence == pytest.approx(0.44)
                # Every connection sees the posterior afterwards.
                with connect(server.host, server.port) as other:
                    posterior = other.execute(
                        "select SSN, conf() from R where NAME = 'Bill'"
                    )
                    rows = {row[0]: row[-1] for row in posterior.rows}
                    assert rows[4] == pytest.approx(0.3 / 0.44)

    def test_reads_race_safely_against_conditioning(self, running_server, ssn_database):
        # Readers hammer confidence while a writer asserts; the write gate
        # must keep every answer either the prior or the posterior value —
        # never a torn mix — and the server must survive.
        prior = pytest.approx(0.94)        # P(SSN=7 ∈ R) before conditioning
        posterior = pytest.approx(0.38 / 0.44)  # ... after assert[John ≠ Bill]
        with running_server(ssn_database, pool_size=4) as server:
            errors: list[BaseException] = []
            values: list[float] = []

            def reader():
                try:
                    with connect(server.host, server.port) as session:
                        for _ in range(30):
                            answer = session.execute(
                                "select true from R where SSN = 7"
                            )
                            values.append(answer.confidence)
                except BaseException as error:
                    errors.append(error)

            def writer():
                try:
                    with connect(server.host, server.port) as session:
                        session.execute(
                            "assert select true from R r1, R r2 "
                            "where r1.NAME = 'John' and r2.NAME = 'Bill' "
                            "and r1.SSN != r2.SSN"
                        )
                except BaseException as error:
                    errors.append(error)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            for value in values:
                assert value == prior or value == posterior

    def test_statistics_and_server_stats(self, running_server, ssn_database):
        with running_server(ssn_database, pool_size=2) as server:
            with connect(server.host, server.port) as session:
                session.confidence("R")
                stats = session.statistics()
                assert stats.computations >= 1
                raw = session.server_stats()
                assert raw["server"]["pool_size"] == 2
                assert raw["server"]["requests_total"] >= 2
                assert raw["server"]["relations"] == ["R"]

    def test_errors_travel_as_typed_exceptions(self, running_server, ssn_database):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                with pytest.raises(UnknownRelationError) as info:
                    session.confidence("NOPE")
                assert info.value.name == "NOPE"
                with pytest.raises(SQLSyntaxError):
                    session.execute("selec broken")
                with pytest.raises(ValueError, match="unknown method"):
                    session.confidence("R", method="quantum")
                from repro.errors import QueryError

                with pytest.raises(QueryError, match="unknown confidence_batch"):
                    session.confidence_batch("R", max_call=10)
                # The connection survives every error above.
                assert session.ping()["pong"] is True

    def test_type_mismatched_comparison_is_a_query_error(
        self, running_server, ssn_database
    ):
        # A well-formed frame whose SQL compares int with str: the typed
        # ``query`` code, never ``malformed-frame``.
        from repro.errors import QueryError

        sql = "select true from R where SSN < 'x'"
        with pytest.raises(QueryError, match="cannot compare int < str"):
            ssn_database.session().execute(sql)
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                with pytest.raises(QueryError, match="cannot compare int < str"):
                    session.execute(sql)
                counters = session.metrics()["counters"]
                assert session.ping()["pong"] is True
        assert counters['repro_server_errors_total{code="query"}'] == 1
        assert 'repro_server_errors_total{code="malformed-frame"}' not in counters


# ----------------------------------------------------------------------
# Memo sharing across connections
# ----------------------------------------------------------------------
def test_memo_is_shared_across_connections(running_server):
    database, instance = hard_database(num_descriptors=64)
    with running_server(database, pool_size=4) as server:
        with connect(server.host, server.port) as first:
            first.confidence(instance.ws_set)
            frames_after_first = first.statistics().frames
            hits_after_first = first.statistics().memo_hits
        # A brand-new connection repeats the query: answered from the memo
        # warmed by the first connection — hits grow, frames barely move.
        with connect(server.host, server.port) as second:
            result = second.confidence(instance.ws_set)
            stats = second.statistics()
            assert stats.memo_hits > hits_after_first
            assert stats.frames <= frames_after_first + 1
            assert result.value == pytest.approx(
                Session(database.world_table).confidence(instance.ws_set).value,
                abs=1e-12,
            )


def test_memo_limit_bounds_the_served_memo(running_server):
    database, instance = hard_database(num_descriptors=128)
    with running_server(database, memo_limit=64) as server:
        with connect(server.host, server.port) as client:
            result = client.confidence(instance.ws_set)
            stats = client.statistics()
    assert stats.memo_evictions > 0
    assert stats.memo_size <= 64
    assert result.value == pytest.approx(
        Session(database.world_table).confidence(instance.ws_set).value, abs=1e-12
    )


# ----------------------------------------------------------------------
# Concurrent multi-client access
# ----------------------------------------------------------------------
def test_concurrent_clients_get_bit_identical_answers(running_server):
    database, instance = hard_database(num_descriptors=48)
    descriptors = list(instance.ws_set)
    # Each client works through its own rotation of overlapping sub-ws-sets
    # plus SQL queries, so engine state is hammered from every direction.
    queries = [WSSet(descriptors[i : i + 16]) for i in range(12)]

    serial = Session(database.world_table)
    expected_values = [serial.confidence(q).value for q in queries]
    serial_sql = database.session().execute("select true from HARD where ID < 7")

    client_count = 8
    results: list[list] = [None] * client_count
    errors: list[BaseException] = []

    def hammer(client_index: int, host: str, port: int) -> None:
        try:
            with connect(host, port) as session:
                mine = []
                order = list(range(len(queries)))
                rotation = client_index % len(order)
                order = order[rotation:] + order[:rotation]
                for query_index in order:
                    value = session.confidence(queries[query_index]).value
                    mine.append((query_index, value))
                sql = session.execute("select true from HARD where ID < 7")
                mine.append(("sql", sql.confidence))
                results[client_index] = mine
        except BaseException as error:  # propagate to the main thread
            errors.append(error)

    with running_server(database, pool_size=4) as server:
        threads = [
            threading.Thread(target=hammer, args=(i, server.host, server.port))
            for i in range(client_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not errors, errors
    for client_results in results:
        assert client_results is not None
        for key, value in client_results:
            if key == "sql":
                assert value == serial_sql.confidence
            else:
                assert value == expected_values[key]


# ----------------------------------------------------------------------
# Protocol robustness: bad frames never kill the connection or server
# ----------------------------------------------------------------------
class TestProtocolRobustness:
    @staticmethod
    def _raw_roundtrip(sock: socket.socket, blob: bytes) -> dict:
        sock.sendall(blob)
        header = b""
        while len(header) < HEADER.size:
            header += sock.recv(HEADER.size - len(header))
        (length,) = HEADER.unpack(header)
        body = b""
        while len(body) < length:
            body += sock.recv(length - len(body))
        return json.loads(body)

    def test_malformed_oversized_and_unknown_version_frames(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database, max_frame_bytes=4096) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                # 1. Garbage JSON -> malformed-frame error, connection lives.
                blob = b"\x00garbage\xff"
                response = self._raw_roundtrip(
                    sock, HEADER.pack(len(blob)) + blob
                )
                assert response["ok"] is False
                assert response["error"]["code"] == "malformed-frame"

                # 2. A JSON array instead of an object.
                blob = b"[1,2,3]"
                response = self._raw_roundtrip(sock, HEADER.pack(len(blob)) + blob)
                assert response["error"]["code"] == "malformed-frame"

                # 3. Oversized frame: drained and answered, not fatal.
                blob = b'{"v":4,"id":9,"op":"ping","pad":"' + b"x" * 8000 + b'"}'
                response = self._raw_roundtrip(sock, HEADER.pack(len(blob)) + blob)
                assert response["error"]["code"] == "frame-too-large"

                # 4. Unknown protocol version, id echoed back.
                blob = json.dumps({"v": 99, "id": 4, "op": "ping"}).encode()
                response = self._raw_roundtrip(sock, HEADER.pack(len(blob)) + blob)
                assert response["error"]["code"] == "unsupported-version"
                assert response["id"] == 4

                # 5. Unknown operation.
                blob = json.dumps(
                    {"v": PROTOCOL_VERSION, "id": 5, "op": "teleport"}
                ).encode()
                response = self._raw_roundtrip(sock, HEADER.pack(len(blob)) + blob)
                assert response["error"]["code"] == "unknown-op"

                # 6. Bad args shape for a known op.
                blob = json.dumps({"v": PROTOCOL_VERSION, "id": 6, "op": "confidence_many",
                                   "args": {"requests": [{"target": "oops"}]}}).encode()
                response = self._raw_roundtrip(sock, HEADER.pack(len(blob)) + blob)
                assert response["error"]["code"] == "malformed-frame"

                # After all that abuse the same connection still answers.
                blob = json.dumps(
                    {"v": PROTOCOL_VERSION, "id": 7, "op": "ping"}
                ).encode()
                response = self._raw_roundtrip(sock, HEADER.pack(len(blob)) + blob)
                assert response["ok"] is True and response["id"] == 7

            # ... and the server still accepts fresh connections.
            with connect(server.host, server.port) as session:
                assert session.confidence("R").value == pytest.approx(1.0)

    def test_every_error_frame_is_counted_once_under_its_code(
        self, running_server, ssn_database
    ):
        def frame(**fields) -> bytes:
            blob = json.dumps({"v": PROTOCOL_VERSION, "id": 1, **fields}).encode()
            return HEADER.pack(len(blob)) + blob

        oversized = b'{"v":4,"id":9,"op":"ping","pad":"' + b"x" * 8000 + b'"}'
        bad_frames = [
            (HEADER.pack(9) + b"\x00garbage\xff", "malformed-frame"),
            (HEADER.pack(len(oversized)) + oversized, "frame-too-large"),
            (frame(v=99, op="ping"), "unsupported-version"),
            (frame(op="teleport"), "unknown-op"),
            (frame(op="ping", args=[1]), "malformed-frame"),
            (frame(op="ping", deadline_ms=-5), "malformed-frame"),
            (
                frame(op="confidence_many", args={"requests": [{"target": "oops"}]}),
                "malformed-frame",
            ),
        ]
        with running_server(ssn_database, max_frame_bytes=4096) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                for blob, code in bad_frames:
                    response = self._raw_roundtrip(sock, blob)
                    assert response["error"]["code"] == code
            with connect(server.host, server.port) as session:
                errors_total = session.server_stats()["server"]["errors_total"]
                counters = session.metrics()["counters"]
        series = {
            key: value
            for key, value in counters.items()
            if key.startswith("repro_server_errors_total")
        }
        assert errors_total == len(bad_frames) == sum(series.values())
        for _, code in bad_frames:
            assert f'repro_server_errors_total{{code="{code}"}}' in series

    def test_oversized_response_becomes_error_frame_not_disconnect(
        self, running_server
    ):
        database, _ = hard_database(num_descriptors=48)
        # The server can *receive* normal requests but its 256-byte response
        # bound is too small for a 48-row SQL answer.
        with running_server(database, max_frame_bytes=256) as server:
            with connect(server.host, server.port) as session:
                with pytest.raises(ProtocolError) as info:
                    session.execute("select ID from HARD")
                assert info.value.code == "frame-too-large"
                # The connection survives: small answers still flow.
                assert session.ping()["pong"] is True

    def test_oversized_request_surfaces_server_error_code(
        self, running_server, ssn_database
    ):
        # The client's frame bound exceeds the server's: the server drains
        # the big request and answers an error frame with id null; the
        # client must surface that code, not complain about the id.
        with running_server(ssn_database, max_frame_bytes=256) as server:
            with connect(server.host, server.port) as session:
                big = WSSet([{f"x{i}": 1} for i in range(200)])
                with pytest.raises(ProtocolError) as info:
                    session.confidence(big)
                assert info.value.code == "frame-too-large"
                assert session.ping()["pong"] is True

    def test_client_drains_oversized_response_and_stays_usable(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port, max_frame_bytes=120) as session:
                # The stats response exceeds the client's 120-byte bound; the
                # client drains it, raises, and the stream stays synchronised.
                with pytest.raises(ProtocolError) as info:
                    session.server_stats()
                assert info.value.code == "frame-too-large"
                assert session.ping()["pong"] is True

    def test_truncated_frame_closes_only_that_connection(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database) as server:
            sock = socket.create_connection((server.host, server.port))
            sock.sendall(HEADER.pack(500) + b"only a few bytes")
            sock.close()
            with connect(server.host, server.port) as session:
                assert session.ping()["pong"] is True

    def test_client_rejects_mismatched_response_ids(self):
        # A fake "server" that answers with the wrong correlation id.
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def fake_server():
            connection, _ = listener.accept()
            with connection:
                from repro.server import protocol as p

                p.recv_frame(connection)
                p.send_frame(connection, p.ok_frame(999, {"pong": True}))

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        with connect(host, port) as session:
            with pytest.raises(ProtocolError, match="does not match"):
                session.ping()
        thread.join(timeout=5)
        listener.close()


# ----------------------------------------------------------------------
# The CLI entrypoint
# ----------------------------------------------------------------------
def test_cli_serves_workload_and_stops_on_sigterm(tmp_path):
    bootstrap = tmp_path / "bootstrap.sql"
    bootstrap.write_text("select true from HARD where ID < 4;\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_repo_root() / "src"), env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.server",
            "--port", "0", "--pool", "2",
            "--workload", "figure11a:n=16,r=2,s=4,w=24,seed=0",
            "--load", str(bootstrap),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = process.stdout.readline().strip()
        match = re.fullmatch(r"listening on (.+):(\d+)", banner)
        assert match, f"unexpected banner {banner!r} (stderr: {process.stderr.read()})"
        with connect(match.group(1), int(match.group(2))) as session:
            assert session.confidence("HARD").value > 0.0
            assert len(session.confidence_batch("HARD")) == 24
            assert session.execute("select true from HARD where ID < 4").confidence > 0
            # The --load script already warmed the engine before "listening".
            assert session.statistics().computations >= 1
    finally:
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=20)
    assert process.returncode == 0, stderr
    assert "server stopped" in stdout


@pytest.mark.parametrize("module", ["repro.server", "repro.cluster"])
def test_cli_rejects_negative_workers(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_repo_root() / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", module, "--port", "0", "--workers", "-1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert completed.returncode == 2, completed.stderr
    assert completed.stderr.startswith("error: "), completed.stderr
    assert "workers" in completed.stderr
    assert "listening" not in completed.stdout


def _repo_root():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent.parent
