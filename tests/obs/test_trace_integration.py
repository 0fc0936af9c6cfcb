"""End-to-end tracing: session → engine → (process pool) span trees.

The acceptance criterion of the observability PR: a traced ``confidence``
request returns a span tree whose phase self-times sum to within 10% of the
request's wall time — including spans merged back from process-pool workers.
The process-pool case runs with ``workers=1`` deliberately: concurrent
workers' spans overlap in time, and overlapping children make self-times
under-count by construction.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.wsset import WSSet
from repro.db.database import ProbabilisticDatabase
from repro.db.session import ConfidenceRequest, ConfidenceResult, Session
from repro.obs.trace import iter_spans
from repro.workloads.hard import HardCaseParameters, generate_hard_instance


def hard_instance(seed=0):
    return generate_hard_instance(
        HardCaseParameters(
            num_variables=16,
            alternatives=2,
            descriptor_length=4,
            num_descriptors=64,
            seed=seed,
        )
    )


def component_rich_database(seed=7, variables=40, descriptors=60):
    """A database whose query decomposes into many ⊗-components, so the
    process pool genuinely fans out (and ships spans back)."""
    rng = random.Random(seed)
    database = ProbabilisticDatabase()
    names = []
    for index in range(variables):
        name = f"x{index}"
        database.world_table.add_boolean(name, rng.uniform(0.05, 0.6))
        names.append(name)
    ws_set = WSSet(
        {names[rng.randrange(variables)]: True for _ in range(rng.randrange(1, 4))}
        for _ in range(descriptors)
    )
    return database, ws_set


def self_time_sum(payload):
    return sum(node["self_seconds"] for node in iter_spans(payload))


class TestSerialTracing:
    def test_untraced_request_has_no_trace(self):
        instance = hard_instance()
        session = Session(instance.world_table)
        result = session.confidence(instance.ws_set)
        assert result.trace is None
        assert session.last_trace is None

    def test_traced_request_returns_engine_phase_tree(self):
        instance = hard_instance()
        session = Session(instance.world_table)
        result = session.confidence(instance.ws_set, trace=True)
        payload = result.trace
        assert payload is not None
        assert payload["name"] == "request"
        assert payload["attrs"]["method"] == "exact"
        spans = {node["name"]: node for node in iter_spans(payload)}
        # Serial sessions evaluate in-line: one engine span carrying the
        # phase counter deltas (decompose/dispatch spans are the parallel
        # path's, covered in TestProcessPoolTracing).
        assert "engine_evaluate" in spans
        assert spans["engine_evaluate"]["attrs"]["frames"] >= 1
        assert session.last_trace == payload
        # The trace is pure JSON — it must survive the wire unchanged.
        assert json.loads(json.dumps(payload)) == payload

    def test_self_times_sum_to_wall_time(self):
        instance = hard_instance()
        session = Session(instance.world_table)
        result = session.confidence(instance.ws_set, trace=True)
        assert result.wall_time > 0.0
        assert self_time_sum(result.trace) == pytest.approx(
            result.wall_time, rel=0.1
        )

    def test_tracing_does_not_change_the_answer(self):
        instance = hard_instance()
        plain = Session(instance.world_table).confidence(instance.ws_set)
        traced = Session(instance.world_table).confidence(
            instance.ws_set, trace=True
        )
        assert traced.value == plain.value

    def test_session_level_trace_flag_traces_every_request(self):
        instance = hard_instance()
        session = Session(instance.world_table, trace=True)
        result = session.confidence(instance.ws_set)
        assert result.trace is not None
        assert session.last_trace == result.trace

    def test_karp_luby_trace_has_sampling_span(self):
        instance = hard_instance()
        session = Session(instance.world_table, seed=3)
        result = session.confidence(
            instance.ws_set, method="karp_luby", epsilon=0.2, delta=0.1, trace=True
        )
        spans = {node["name"]: node for node in iter_spans(result.trace)}
        assert "karp_luby_rounds" in spans
        assert spans["karp_luby_rounds"]["attrs"]["iterations"] == result.iterations

    def test_request_codec_round_trips_trace_flag(self):
        instance = hard_instance()
        request = ConfidenceRequest(instance.ws_set, "exact", trace=True)
        decoded = ConfidenceRequest.from_payload(request.to_payload())
        assert decoded.trace is True
        plain = ConfidenceRequest(instance.ws_set, "exact")
        assert "trace" not in plain.to_payload()

    def test_request_codec_rejects_non_bool_trace(self):
        instance = hard_instance()
        with pytest.raises(ValueError):
            ConfidenceRequest(instance.ws_set, "exact", trace=1)
        payload = ConfidenceRequest(instance.ws_set, "exact").to_payload()
        payload["trace"] = "yes"
        with pytest.raises(ValueError):
            ConfidenceRequest.from_payload(payload)

    def test_result_codec_carries_trace(self):
        instance = hard_instance()
        session = Session(instance.world_table)
        result = session.confidence(instance.ws_set, trace=True)
        rebuilt = ConfidenceResult.from_payload(result.to_payload())
        assert rebuilt.trace == result.trace


class TestProcessPoolTracing:
    def test_worker_spans_merge_back_and_self_times_sum(self):
        database, ws_set = component_rich_database()
        serial = database.session().confidence(ws_set)
        session = database.session(workers=1)
        try:
            result = session.confidence(ws_set, trace=True)
            assert result.value == serial.value  # bit-identical across the pool
            payload = result.trace
            remote = [
                node for node in iter_spans(payload) if node.get("remote")
            ]
            assert remote, "no spans came back from the worker"
            assert all(node["name"] == "worker_component" for node in remote)
            assert all(node["attrs"]["descriptors"] >= 1 for node in remote)
            assert all(node["attrs"]["frames"] >= 1 for node in remote)
            assert self_time_sum(payload) == pytest.approx(
                result.wall_time, rel=0.1
            )
            # The workers' per-component histogram merged into the parent's
            # registry alongside the parent's own instruments.
            histograms = session.handle.metrics.snapshot()["histograms"]
            assert histograms["repro_worker_component_seconds"]["count"] == len(
                remote
            )
        finally:
            session.close()

    def test_pooled_request_records_its_phase_spans(self):
        database, ws_set = component_rich_database()
        session = database.session(workers=1)
        try:
            result = session.confidence(ws_set, trace=True)
            spans = {
                node["name"]: node["attrs"]
                for node in iter_spans(result.trace)
                if not node.get("remote")
            }
            assert {"decompose", "memo_lookup", "dispatch", "merge"} <= set(spans)
            components = spans["decompose"]["components"]
            assert components == spans["memo_lookup"]["components"] >= 2
            hits = spans["memo_lookup"]["hits"]
            assert spans["dispatch"]["jobs"] == components - hits
            assert spans["merge"]["jobs"] == spans["dispatch"]["jobs"]
            histograms = session.handle.metrics.snapshot()["histograms"]
            assert histograms["repro_engine_compute_seconds"]["count"] == 1
        finally:
            session.close()
