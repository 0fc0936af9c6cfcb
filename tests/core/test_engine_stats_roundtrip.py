"""Exhaustive ``EngineStats`` ``as_dict``/``from_dict`` round-trip coverage.

The stats payload crosses the wire (the server's ``stats`` frame,
``ConfidenceResult.stats``), so every counter — including the newer
``cond_memo_*``, ``circuit_*`` and executor families — must survive the
dict codec exactly.  Field-driven via ``dataclasses.fields``, so adding a
field to :class:`EngineStats` without updating the codec fails here.
"""

from __future__ import annotations

import dataclasses
import json

from repro.core.engine import EngineStats


def distinct_stats() -> EngineStats:
    """An ``EngineStats`` with a distinct, non-default value in every field."""
    values: dict[str, object] = {}
    for index, field in enumerate(dataclasses.fields(EngineStats), start=1):
        if field.type in ("int", int):
            values[field.name] = 1000 + index
        elif field.type in ("float", float):
            values[field.name] = 0.125 * index
        elif field.type in ("str", str):
            values[field.name] = f"value-{index}"
        else:  # a new field type needs an explicit case here
            raise AssertionError(f"unhandled field type {field.type!r}")
    return EngineStats(**values)


def test_every_field_round_trips():
    stats = distinct_stats()
    rebuilt = EngineStats.from_dict(stats.as_dict())
    assert rebuilt == stats
    for field in dataclasses.fields(EngineStats):
        assert getattr(rebuilt, field.name) == getattr(stats, field.name), field.name


def test_every_field_appears_in_as_dict():
    payload = distinct_stats().as_dict()
    field_names = {field.name for field in dataclasses.fields(EngineStats)}
    assert field_names <= set(payload)


def test_as_dict_includes_derived_hit_rate():
    stats = EngineStats(frames=10, memo_hits=4)
    payload = stats.as_dict()
    assert payload["memo_hit_rate"] == 0.4
    # Derived, not stored: from_dict must accept (and ignore) it.
    assert EngineStats.from_dict(payload) == stats


def test_round_trip_survives_json():
    stats = distinct_stats()
    payload = json.loads(json.dumps(stats.as_dict()))
    assert EngineStats.from_dict(payload) == stats


def test_from_dict_ignores_unknown_keys():
    stats = distinct_stats()
    payload = stats.as_dict()
    payload["a_future_field"] = 123
    assert EngineStats.from_dict(payload) == stats


def test_from_dict_defaults_missing_keys():
    assert EngineStats.from_dict({}) == EngineStats()
    partial = EngineStats.from_dict({"frames": 7})
    assert partial.frames == 7
    assert partial.cond_memo_hits == 0


def test_newer_counter_families_are_covered():
    # Belt and braces on top of the field-driven sweep: the families the
    # codec historically lagged behind on are spelled out.
    names = {field.name for field in dataclasses.fields(EngineStats)}
    assert {
        "cond_memo_hits", "cond_memo_misses",
        "circuits_compiled", "circuit_cache_hits", "circuit_evals",
        "circuit_compile_time", "circuit_eval_time",
        "executor", "workers", "parallel_computations", "parallel_components",
        "worker_utilisation", "worker_retries", "pools_rebuilt",
    } <= names
