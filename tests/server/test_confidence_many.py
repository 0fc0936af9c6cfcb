"""Tests of the batched ``confidence_many`` operation and the version check.

``confidence_many`` replaces the historical client-side loop with one frame:
the server fans the batch across its session pool and answers in request
order, with values equal to looped ``confidence`` calls.  The server speaks
one protocol version (a frame carrying any other is answered with
``unsupported-version``), and the process-executor server must agree with
local sessions.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.core.wsset import WSSet
from repro.db.session import ConfidenceRequest, Session
from repro.errors import ProtocolError, UnknownRelationError
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


def slice_queries(instance, count=6, size=16, stride=6):
    descriptors = list(instance.ws_set)
    return [
        WSSet(descriptors[index * stride : index * stride + size])
        for index in range(count)
    ]


def raw_roundtrip(sock: socket.socket, payload: dict) -> dict:
    blob = json.dumps(payload).encode()
    sock.sendall(HEADER.pack(len(blob)) + blob)
    header = b""
    while len(header) < HEADER.size:
        header += sock.recv(HEADER.size - len(header))
    (length,) = HEADER.unpack(header)
    body = b""
    while len(body) < length:
        body += sock.recv(length - len(body))
    return json.loads(body)


class TestConfidenceMany:
    def test_batch_equals_looped_confidence(self, running_server):
        database, instance = hard_database(num_descriptors=48)
        queries = slice_queries(instance)
        with running_server(database) as server:
            with connect(server.host, server.port) as session:
                looped = [session.confidence(query) for query in queries]
                requests_after_loop = session.server_stats()["server"][
                    "requests_total"
                ]
                batched = session.confidence_many(queries)
                requests_after_batch = session.server_stats()["server"][
                    "requests_total"
                ]
        assert [result.value for result in batched] == [
            result.value for result in looped
        ]
        assert all(result.method == "exact" for result in batched)
        # The whole batch cost exactly one round trip (plus the stats call).
        assert requests_after_batch - requests_after_loop == 2

    def test_batch_accepts_mixed_targets_and_requests(self, running_server):
        database, instance = hard_database(num_descriptors=32)
        query = slice_queries(instance, count=1)[0]
        with running_server(database) as server:
            with connect(server.host, server.port) as session:
                results = session.confidence_many(
                    [
                        "HARD",
                        query,
                        ConfidenceRequest(query, "karp_luby", seed=7),
                    ]
                )
                assert results[0].value == session.confidence("HARD").value
                assert results[1].value == session.confidence(query).value
                assert results[2].method == "karp_luby"
                repeat = session.confidence_many(
                    [ConfidenceRequest(query, "karp_luby", seed=7)]
                )
                assert results[2].value == repeat[0].value

    def test_empty_batch_and_malformed_batches(self, running_server, ssn_database):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                assert session.confidence_many([]) == []
                sock = session._sock
                response = raw_roundtrip(
                    sock,
                    {
                        "v": PROTOCOL_VERSION,
                        "id": 90,
                        "op": "confidence_many",
                        "args": {"requests": {"not": "a list"}},
                    },
                )
                assert response["ok"] is False
                assert response["error"]["code"] == "query"
                response = raw_roundtrip(
                    sock,
                    {
                        "v": PROTOCOL_VERSION,
                        "id": 91,
                        "op": "confidence_many",
                        "args": {"requests": [{"target": "oops"}]},
                    },
                )
                assert response["error"]["code"] == "malformed-frame"
                # The connection survives and normal traffic resumes.
                assert session.ping()["pong"] is True

    def test_failing_request_fails_the_batch_with_its_type(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                with pytest.raises(UnknownRelationError):
                    session.confidence_many(["R", "NOPE"])
                assert session.ping()["pong"] is True

    def test_batch_through_process_executor_server(self, running_server):
        database, instance = hard_database(num_descriptors=48, seed=1)
        queries = slice_queries(instance)
        local = Session(database.world_table)
        expected = [local.confidence(query).value for query in queries]
        with running_server(
            database, workers=2, pool_size=4
        ) as server:
            with connect(server.host, server.port) as session:
                results = session.confidence_many(queries)
                engine = session.server_stats()["engine"]
        assert [result.value for result in results] == expected
        assert engine["executor"] == "process"
        assert engine["workers"] == 2


class TestProtocolVersioning:
    def test_ping_reports_the_current_protocol_version(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                assert session.ping()["protocol"] == PROTOCOL_VERSION == 6

    @pytest.mark.parametrize("version", [1, 3, 99, None, "4"])
    def test_any_other_version_is_rejected(
        self, running_server, ssn_database, version
    ):
        with running_server(ssn_database) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                response = raw_roundtrip(sock, {"v": version, "id": 5, "op": "ping"})
                assert response["ok"] is False and response["id"] == 5
                assert response["v"] == PROTOCOL_VERSION
                assert response["error"]["code"] == "unsupported-version"
                assert f"version {PROTOCOL_VERSION}" in response["error"]["message"]
                # The connection survives and answers the real version.
                response = raw_roundtrip(
                    sock, {"v": PROTOCOL_VERSION, "id": 6, "op": "ping"}
                )
                assert response["ok"] is True and response["id"] == 6

    def test_client_surfaces_unknown_op_against_old_server(self):
        # Simulate a server that does not know the operation: it answers
        # confidence_many with unknown-op; the client must raise a
        # ProtocolError carrying that code rather than something about
        # response ids.
        import threading

        from repro.server import protocol

        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def old_server():
            connection, _ = listener.accept()
            with connection:
                frame = protocol.recv_frame(connection)
                protocol.send_frame(
                    connection,
                    protocol.error_frame(
                        frame["id"], "unknown-op", "unknown operation"
                    ),
                )

        thread = threading.Thread(target=old_server, daemon=True)
        thread.start()
        with connect(host, port) as session:
            with pytest.raises(ProtocolError) as info:
                session.confidence_many(["R"])
            assert info.value.code == "unknown-op"
        thread.join(timeout=5)
        listener.close()
