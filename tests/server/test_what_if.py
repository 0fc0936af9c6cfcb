"""The ``what_if`` protocol op: one frame, one compiled circuit, many points."""

from __future__ import annotations

import pytest

from repro.core.wsset import WSSet
from repro.db.database import ProbabilisticDatabase
from repro.errors import ProtocolError, QueryError, UnknownVariableError
from repro.server import protocol
from repro.server.client import connect


def build_database() -> ProbabilisticDatabase:
    database = ProbabilisticDatabase()
    table = database.world_table
    table.add_variable("x", {1: 0.3, 2: 0.7})
    table.add_variable("y", {1: 0.4, 2: 0.6})
    table.add_variable("z", {1: 0.2, 2: 0.3, 3: 0.5})
    relation = database.create_relation("R", ("A",))
    relation.add({"x": 1}, ("a",))
    relation.add({"y": 1, "z": 2}, ("a",))
    relation.add({"x": 2, "z": 1}, ("b",))
    return database


class TestWhatIfOp:
    def test_round_trip_equals_local_session(self, running_server):
        database = build_database()
        ps = [0.0, 0.25, 0.5, 0.75, 1.0]
        local = build_database().session().what_if("R", "x", ps, value=1)
        with running_server(database) as server:
            with connect(server.host, server.port) as session:
                remote = session.what_if("R", "x", ps, value=1)
        assert remote == local

    def test_wsset_target_and_default_value(self, running_server):
        database = build_database()
        target = WSSet([{"x": 1}, {"y": 1}])
        local = build_database().session().what_if(target, "y", [0.1, 0.9])
        with running_server(database) as server:
            with connect(server.host, server.port) as session:
                assert session.what_if(target, "y", [0.1, 0.9]) == local

    def test_circuit_is_cached_across_frames(self, running_server):
        database = build_database()
        with running_server(database) as server:
            with connect(server.host, server.port) as session:
                session.what_if("R", "x", [0.2], value=1)
                session.what_if("R", "y", [0.8], value=1)
                stats = session.server_stats()
        engine = stats["engine"]
        assert engine["circuits_compiled"] == 1
        assert engine["circuit_cache_hits"] >= 1
        assert engine["circuit_evals"] == 2

    def test_unknown_variable_travels_typed(self, running_server):
        with running_server(build_database()) as server:
            with connect(server.host, server.port) as session:
                with pytest.raises(UnknownVariableError):
                    session.what_if("R", "nope", [0.5])

    def test_malformed_ps_and_unknown_options(self, running_server):
        target = {"kind": "relation", "name": "R"}
        with running_server(build_database()) as server:
            with connect(server.host, server.port) as session:
                for bad_ps in ([], None, [0.5, True], "0.5"):
                    with pytest.raises(QueryError):
                        session._call(
                            "what_if",
                            {"target": target, "variable": "x", "ps": bad_ps},
                        )
                with pytest.raises(QueryError):
                    session._call(
                        "what_if",
                        {"target": target, "variable": "x", "ps": [0.5], "oops": 1},
                    )
                with pytest.raises(QueryError):
                    session._call("what_if", {"variable": "x", "ps": [0.5]})
                with pytest.raises(QueryError):
                    session._call("what_if", {"target": target, "ps": [0.5]})

    def test_what_if_is_idempotent_on_the_wire(self):
        assert "what_if" in protocol.IDEMPOTENT_OPS

    def test_client_raises_protocol_error_when_disconnected(self):
        import socket

        sock = socket.socket()
        from repro.server.client import ServerSession

        session = ServerSession(sock)
        session.close()
        with pytest.raises(ProtocolError):
            session.what_if("R", "x", [0.5])
