"""Server-side observability: the ``metrics`` op, wire traces, slow-query
logging, the HTTP exposition endpoint and the CLI logging configuration."""

from __future__ import annotations

import json
import logging
import socket

import pytest

from repro.obs.metrics import quantile_from_snapshot
from repro.server import connect
from repro.server.__main__ import JsonLogFormatter, configure_logging
from repro.server.server import ConfidenceServer


class TestMetricsOp:
    def test_metrics_expose_per_op_histograms_and_pressure(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                for _ in range(3):
                    session.confidence("R")
                session.ping()
                snapshot = session.metrics()
        histogram = snapshot["histograms"]['repro_server_op_seconds{op="confidence_many"}']
        assert histogram["count"] == 3
        p50 = quantile_from_snapshot(histogram, 0.5)
        p90 = quantile_from_snapshot(histogram, 0.9)
        p99 = quantile_from_snapshot(histogram, 0.99)
        assert 0.0 < p50 <= p90 <= p99 <= histogram["max"]
        assert snapshot["counters"]['repro_server_requests_total{op="confidence_many"}'] == 3
        # Pressure gauges and mirrored admission counters, refreshed at read
        # time (the request being answered holds the one in-flight slot).
        assert snapshot["gauges"]["repro_server_queue_depth"] == 0.0
        assert snapshot["gauges"]["repro_server_inflight"] == 1.0
        assert snapshot["gauges"]["repro_server_connections_open"] == 1.0
        assert snapshot["gauges"]["repro_server_draining"] == 0.0
        assert snapshot["counters"]["repro_server_shed_total"] == 0
        assert snapshot["counters"]["repro_server_admitted_total"] == 3
        # The engine handle's registry is merged into the same snapshot.
        assert any(
            key.startswith("repro_session_request_seconds")
            for key in snapshot["histograms"]
        )

    def test_error_counter_has_code_label(self, running_server, ssn_database):
        from repro.errors import UnknownRelationError

        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                with pytest.raises(UnknownRelationError):
                    session.confidence("NO_SUCH_RELATION")
                snapshot = session.metrics()
        errors = {
            key: value
            for key, value in snapshot["counters"].items()
            if key.startswith("repro_server_errors_total")
        }
        assert sum(errors.values()) == 1
        assert all("code=" in key for key in errors)


class TestWireTrace:
    def test_traced_confidence_returns_span_tree(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                traced = session.confidence("R", trace=True)
                plain = session.confidence("R")
        assert plain.trace is None
        payload = traced.trace
        assert payload is not None
        assert payload["name"] == "request"
        assert payload["seconds"] == traced.wall_time
        assert payload["children"]  # at least one engine phase span

    def test_malformed_trace_flag_is_rejected(self, running_server, ssn_database):
        from repro.db.session import ConfidenceRequest
        from repro.errors import ProtocolError

        args = ConfidenceRequest("R", "exact").to_payload()
        args["trace"] = "yes"  # truthy but not a boolean: must error, not trace
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                with pytest.raises(ProtocolError, match="trace must be a boolean"):
                    session._call("confidence_many", {"requests": [args]})


class TestSlowQueryLog:
    def test_slow_queries_log_structured_json_with_trace(
        self, running_server, ssn_database, caplog
    ):
        with caplog.at_level(logging.WARNING, logger="repro.server.slowquery"):
            with running_server(ssn_database, slow_query_ms=0.0) as server:
                with connect(server.host, server.port) as session:
                    result = session.confidence("R")
        # The threshold of 0 ms marks every query slow; the forced
        # server-side trace rides the log line, not the response.
        assert result.trace is None
        records = [
            record for record in caplog.records
            if record.name == "repro.server.slowquery"
        ]
        assert records
        entry = json.loads(records[0].getMessage())
        assert entry["event"] == "slow_query"
        assert entry["op"] == "confidence_many"
        assert entry["ms"] >= 0.0
        assert entry["trace"]["name"] == "request"

    def test_every_slow_batch_member_is_logged(
        self, running_server, ssn_database, caplog
    ):
        # Relation-name targets never take the inline path, so all three
        # members are computed — and each one overran the 0 ms threshold.
        with caplog.at_level(logging.WARNING, logger="repro.server.slowquery"):
            with running_server(ssn_database, slow_query_ms=0.0) as server:
                with connect(server.host, server.port) as session:
                    results = session.confidence_many(["R", "R", "R"])
        assert [result.trace for result in results] == [None, None, None]
        entries = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.server.slowquery"
        ]
        assert len(entries) == 3
        assert {entry["op"] for entry in entries} == {"confidence_many"}
        assert all(entry["trace"]["name"] == "request" for entry in entries)

    def test_client_requested_trace_survives_slow_query_logging(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database, slow_query_ms=0.0) as server:
            with connect(server.host, server.port) as session:
                result = session.confidence("R", trace=True)
        assert result.trace is not None

    def test_fast_queries_are_not_logged(
        self, running_server, ssn_database, caplog
    ):
        with caplog.at_level(logging.WARNING, logger="repro.server.slowquery"):
            with running_server(ssn_database, slow_query_ms=60_000.0) as server:
                with connect(server.host, server.port) as session:
                    session.confidence("R")
        assert not [
            record for record in caplog.records
            if record.name == "repro.server.slowquery"
        ]


class TestHttpExposition:
    @staticmethod
    def http_get(host, port, path):
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n".encode("ascii")
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        header, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        status = int(header.split(None, 2)[1])
        return status, body.decode("utf-8")

    def test_metrics_endpoint_serves_prometheus_text(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database, metrics_port=0) as server:
            host, port = server.server.metrics_address
            with connect(server.host, server.port) as session:
                session.confidence("R")
            status, body = self.http_get(host, port, "/metrics")
            missing_status, _ = self.http_get(host, port, "/nope")
        assert status == 200
        assert missing_status == 404
        assert "# TYPE repro_server_op_seconds summary" in body
        assert 'repro_server_op_seconds_count{op="confidence_many"} 1' in body
        assert "# TYPE repro_server_queue_depth gauge" in body
        assert "repro_server_shed_total 0" in body

    def test_metrics_endpoint_absent_by_default(self, running_server, ssn_database):
        with running_server(ssn_database) as server:
            assert server.server.metrics_address is None


class TestCliLogging:
    def teardown_method(self):
        # configure_logging replaces the root handlers; restore pytest's.
        logging.getLogger().handlers[:] = []

    def test_plain_format_keeps_banner_parseable(self, capsys):
        configure_logging("info", False)
        logging.getLogger("repro.server.cli").info(
            "listening on %s:%s", "127.0.0.1", 2008
        )
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "listening on 127.0.0.1:2008"

    def test_log_level_filters(self, capsys):
        configure_logging("warning", False)
        logging.getLogger("repro.server").info("hidden")
        logging.getLogger("repro.server").warning("visible")
        assert capsys.readouterr().out.splitlines() == ["visible"]

    def test_json_formatter_emits_one_object_per_line(self):
        formatter = JsonLogFormatter()
        record = logging.LogRecord(
            "repro.server", logging.INFO, __file__, 1,
            "listening on %s:%s", ("127.0.0.1", 2008), None,
        )
        entry = json.loads(formatter.format(record))
        assert entry["level"] == "info"
        assert entry["logger"] == "repro.server"
        assert entry["message"] == "listening on 127.0.0.1:2008"
        assert isinstance(entry["ts"], float)

    def test_json_formatter_embeds_structured_messages(self):
        formatter = JsonLogFormatter()
        payload = json.dumps({"event": "slow_query", "ms": 12.5})
        record = logging.LogRecord(
            "repro.server.slowquery", logging.WARNING, __file__, 1,
            payload, None, None,
        )
        entry = json.loads(formatter.format(record))
        assert entry["data"] == {"event": "slow_query", "ms": 12.5}
        assert "message" not in entry


class TestServerCtor:
    def test_metrics_options_are_accepted(self, ssn_database):
        server = ConfidenceServer(
            ssn_database, metrics_port=0, slow_query_ms=10.0
        )
        assert server.metrics_address is None  # not started yet
        server.session.close()
