"""The ws-set wire form: flat descriptor lists, decoded without descriptor objects.

``WSSet.to_wire`` writes one flat ``[variable, value, …]`` list per
descriptor and ``WSSet.from_wire`` reads it back, checking shape and
functionality but building no :class:`WSDescriptor` until something reads
the set's descriptors.  Interning reads the lists directly and must give the
list the materialised set gives, so every estimator sees the same input; a
served hit therefore goes from the frame to the memo probe without one
descriptor object.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import interned
from repro.core.descriptors import WSDescriptor
from repro.core.interned import InternedSpace
from repro.core.wsset import WSSet
from repro.db.api import target_from_payload
from repro.db.session import ConfidenceRequest, Session
from repro.db.world_table import WorldTable
from repro.errors import DescriptorError
from repro.server import connect, protocol

VARIABLES = ["x", "y", "z", 0, 1, 2]
VALUES = ["a", "b", 0, 1]


def wire_world_table() -> WorldTable:
    world_table = WorldTable()
    for variable in VARIABLES:
        world_table.add_variable(variable, {"a": 0.1, "b": 0.2, 0: 0.3, 1: 0.4})
    return world_table


@st.composite
def wire_cases(draw):
    """``(descriptors, wire)``: dict descriptors and one wire list for them.

    Descriptors repeat, their assignments come in any order, and a value may
    lie outside every domain (``"q"``).
    """
    base = draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(VARIABLES), st.sampled_from(VALUES + ["q"]), max_size=4
            ),
            min_size=1,
            max_size=6,
        )
    )
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=10))
    descriptors = [base[index] for index in picks]
    wire = []
    for descriptor in descriptors:
        pairs = draw(st.permutations(sorted(descriptor.items(), key=repr)))
        wire.append([item for pair in pairs for item in pair])
    return descriptors, wire


def json_round_trip(value):
    return json.loads(json.dumps(value))


@pytest.fixture
def built(monkeypatch):
    """A list that grows by one per :class:`WSDescriptor` constructed."""
    counts = []
    original = WSDescriptor.__init__

    def counting(self, *args, **kwargs):
        counts.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(WSDescriptor, "__init__", counting)
    return counts


class TestCodec:
    @settings(max_examples=150, deadline=None)
    @given(wire_cases())
    def test_round_trip_and_interning_match_the_materialised_set(self, case):
        descriptors, wire = case
        ws_set = WSSet(descriptors)
        assert WSSet.from_wire(json_round_trip(ws_set.to_wire())) == ws_set
        decoded = WSSet.from_wire(json_round_trip(wire))
        space = wire_world_table().interned()
        # Straight from the lists, then from the descriptors they denote.
        assert space.intern_wsset(decoded) == space.intern_wsset(ws_set)
        assert decoded.descriptors == ws_set.descriptors

    def test_to_wire_keeps_each_descriptors_own_order(self):
        ws_set = WSSet([WSDescriptor([("y", 2), ("x", 1)]), {"z": 0}])
        assert ws_set.to_wire() == [["y", 2, "x", 1], ["z", 0]]

    def test_decoding_builds_no_descriptor_until_read(self, built):
        ws_set = WSSet.from_wire([["x", 1, "y", 2], ["z", 0], ["y", 2, "x", 1]])
        wire_world_table().interned().intern_wsset(ws_set)
        assert built == []
        assert len(ws_set) == 2 and built

    def test_a_repeated_variable_counts_once_or_is_rejected(self):
        assert WSSet.from_wire([["x", 1, "x", 1]]) == WSSet([{"x": 1}])
        assert WSSet.from_wire([["x", 1, "y", 0, "x", 1]]).to_wire() == [
            ["x", 1, "y", 0]
        ]
        with pytest.raises(DescriptorError, match="not functional"):
            target_from_payload({"kind": "wsset", "descriptors": [["x", 1, "x", 2]]})

    def test_to_wire_flattens_once(self, built):
        ws_set = WSSet([{"x": 1, "y": 2}, {"z": 0}])
        first = ws_set.to_wire()
        built.clear()
        assert ws_set.to_wire() == first == [["x", 1, "y", 2], ["z", 0]]
        assert ws_set.to_wire() is first
        assert built == []

    @settings(max_examples=100, deadline=None)
    @given(wire_cases())
    def test_a_memoised_set_round_trips_and_interns_like_a_fresh_one(self, case):
        descriptors, _ = case
        ws_set = WSSet(descriptors)
        ws_set.to_wire()
        assert WSSet.from_wire(json_round_trip(ws_set.to_wire())) == ws_set
        space = wire_world_table().interned()
        assert space.intern_wsset(ws_set) == space.intern_wsset(WSSet(descriptors))

    @pytest.mark.parametrize(
        "descriptors",
        [{"x": 1}, [["x", 1, "y"]], [["x"]], [{"x": 1}], [("x", 1)], [[["x", 1]]]],
        ids=["not-a-list", "odd", "lone-variable", "mapping", "tuple", "v5-pairs"],
    )
    def test_malformed_shapes_raise_value_error(self, descriptors):
        with pytest.raises(ValueError):
            WSSet.from_wire(descriptors)


def raw_reply(session, descriptors: list) -> dict:
    """The raw outcome of a one-request ``confidence_many`` frame."""
    try:
        (reply,) = session._call(
            "confidence_many",
            {"requests": [{"target": {"kind": "wsset", "descriptors": descriptors}}]},
        )["results"]
    except Exception as error:  # noqa: BLE001 - the test inspects the code
        return {"error": error}
    return reply


class TestServedWireSets:
    def test_a_conflicting_repeat_is_rejected_and_an_equal_one_counts_once(
        self, running_server, ssn_database
    ):
        local = Session(ssn_database)
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                error = raw_reply(session, [["j", 1, "j", 7]])["error"]
                assert isinstance(error, DescriptorError)
                assert "not functional" in str(error)
                reply = raw_reply(session, [["j", 1, "j", 1]])
                assert reply["value"] == local.confidence(WSSet([{"j": 1}])).value
                assert session.ping()["pong"] is True

    def test_rejections_keep_their_wire_codes(self, running_server, ssn_database):
        local = Session(ssn_database)
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                codes = [
                    getattr(raw_reply(session, descriptors)["error"], "code", None)
                    for descriptors in ([["j", 1, "b"]], [{"j": 1}], ["j", 1])
                ]
                assert codes == ["malformed-frame"] * 3
                error = raw_reply(session, [["nobody", 1]])["error"]
                assert type(error).__name__ == "UnknownVariableError"
                # A value outside its variable's domain drops its descriptor.
                reply = raw_reply(session, [["j", 1], ["j", 99]])
                expected = local.confidence(WSSet([{"j": 1}, {"j": 99}])).value
                assert reply["value"] == expected == pytest.approx(0.2)

    def test_an_inline_hit_builds_no_descriptor_and_a_miss_matches_local(
        self, running_server, hard_database, built
    ):
        database, descriptors = hard_database(96, seed=5)
        query = WSSet(descriptors[10:34])
        local = Session(database).confidence(query).value
        frame = {"requests": [ConfidenceRequest(query).to_payload()]}
        with running_server(database, pool_size=1) as server:
            with connect(server.host, server.port) as session:
                (cold,) = session._call("confidence_many", frame)["results"]
                assert server.server._inline_answers_total == 0
                built.clear()
                (hot,) = session._call("confidence_many", frame)["results"]
                assert built == []
                assert server.server._inline_answers_total == 1
        assert cold["value"] == hot["value"] == local


def error_code(reply: dict) -> str:
    """The wire code of a :func:`raw_reply` failure."""
    error = reply["error"]
    return getattr(error, "code", None) or protocol.error_code(error)


class TestWireCache:
    """A space interns each distinct wire ws-set once, and only under its ids."""

    def test_a_repeated_served_frame_interns_nothing(
        self, running_server, hard_database, monkeypatch
    ):
        database, descriptors = hard_database(96, seed=5)
        wire = WSSet(descriptors[10:34]).to_wire()
        calls = []
        original = InternedSpace.intern_items

        def counting(self, items):
            calls.append(1)
            return original(self, items)

        monkeypatch.setattr(InternedSpace, "intern_items", counting)
        with running_server(database, pool_size=1) as server:
            with connect(server.host, server.port) as session:
                cold = raw_reply(session, wire)
                assert calls
                calls.clear()
                hot = raw_reply(session, wire)
        assert calls == []
        assert hot["value"] == cold["value"]

    def test_distinct_sets_keep_the_cache_bounded(self):
        space = wire_world_table().interned()
        limit = interned._WIRE_CACHE_LIMIT
        sizes = []
        for index in range(3 * limit):
            # Values past the domain are dropped, but each key is new.
            wire = [[VARIABLES[index % 6], VALUES[index % 4]], ["z", index]]
            space.intern_wsset(WSSet.from_wire(wire))
            sizes.append(len(space.wire_cache))
        assert max(sizes) == limit

    def test_a_set_over_the_probe_limit_is_never_stored(self):
        space = wire_world_table().interned()
        lists = [["x", "a", "y", index] for index in range(interned._PROBE_LIMIT + 1)]
        decoded = WSSet.from_wire(lists)
        assert space.intern_wsset(decoded) == space.intern_wsset(decoded)
        assert space.wire_cache == {}
        expected = space.intern_wsset(WSSet.from_wire(lists[:-1]))
        assert len(space.wire_cache) == 1
        assert space.intern_wsset(WSSet.from_wire(lists[:-1])) == expected

    def test_a_hit_returns_a_copy(self):
        space = wire_world_table().interned()
        first = space.intern_wsset(WSSet.from_wire([["x", "a"], ["y", 0]]))
        first.clear()
        assert len(space.intern_wsset(WSSet.from_wire([["x", "a"], ["y", 0]]))) == 2

    def test_threads_sharing_a_space_get_correct_lists(self, monkeypatch):
        """More threads than cores hammer one small cache; no list is wrong."""
        monkeypatch.setattr(interned, "_WIRE_CACHE_LIMIT", 8)
        space = wire_world_table().interned()
        wires = [[[VARIABLES[i % 6], VALUES[i % 4]], ["z", i % 3]] for i in range(40)]
        expected = [space._intern_all(WSSet.from_wire(w).assignments()) for w in wires]
        wrong, sizes = [], []

        def work(offset):
            for step in range(600):
                index = (offset + 7 * step) % len(wires)
                if space.intern_wsset(WSSet.from_wire(wires[index])) != expected[index]:
                    wrong.append(index)
                sizes.append(len(space.wire_cache))

        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and len(sizes) == 6 * 600
        # Check-then-clear may race: each thread overshoots by one at most.
        assert max(sizes) <= 8 + len(threads)

    def test_a_successor_and_a_rebuild_start_empty(self):
        world_table = wire_world_table()
        space = world_table.interned()
        space.intern_wsset(WSSet.from_wire([["x", "a"]]))
        assert space.wire_cache
        world_table.set_distribution("x", {1: 0.5, 0: 0.5})
        assert world_table.interned().wire_cache == {}
        child = world_table.interned().successor(world_table, (), ())
        assert child.wire_cache == {}

    def test_unhashable_values_keep_their_codes(self, running_server, ssn_database):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                # The codes of the uncached path: an unknown variable is
                # found first, else hashing the value fails the frame.
                for descriptors, code in [
                    ([["x", [1]]], "unknown-variable"),
                    ([["j", [1]]], "malformed-frame"),
                    ([["j", 1], ["b", {}]], "malformed-frame"),
                ]:
                    for _ in range(2):
                        assert error_code(raw_reply(session, descriptors)) == code
                # Interning stops at an out-of-domain value, before [1].
                for _ in range(2):
                    assert raw_reply(session, [["j", 99, "b", [1]]])["value"] == 0.0
                assert session.ping()["pong"] is True


class TestCacheInvalidation:
    """A repeated served ws-set is interned against the current space."""

    def test_an_assert_that_drops_a_variable_is_not_a_stale_hit(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                wire = [["j", 7], ["b", 4]]
                first, repeat = (raw_reply(session, wire)["value"] for _ in range(2))
                assert first == repeat
                summary = session.execute("assert select true from R where SSN = 1")
                assert summary.kind == "assert"
                assert error_code(raw_reply(session, wire)) == "unknown-variable"
                assert raw_reply(session, [["b", 4]])["value"] == pytest.approx(0.3)

    def test_an_in_place_reweighting_matches_a_local_session(
        self, running_server, ssn_database
    ):
        wire = [["j", 1, "b", 4], ["b", 7]]
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                before = raw_reply(session, wire)["value"]
                assert raw_reply(session, wire)["value"] == before
                # Reorders b's domain too: a stale hit would swap its ids.
                ssn_database.world_table.set_distribution("b", {7: 0.1, 4: 0.9})
                after = raw_reply(session, wire)["value"]
        # A materialised set: the local session interns it uncached.
        local = Session(ssn_database).confidence(WSSet([{"j": 1, "b": 4}, {"b": 7}]))
        assert after == local.value != before
        assert after == pytest.approx(0.2 * 0.9 + 0.1)

    def test_a_conflicting_descriptor_is_rejected_twice_and_never_cached(
        self, running_server, ssn_database
    ):
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                raw_reply(session, [["j", 1]])
                space = ssn_database.world_table.interned()
                cached = dict(space.wire_cache)
                assert len(cached) == 1
                for _ in range(2):
                    assert error_code(raw_reply(session, [["j", 1, "j", 2]])) == (
                        "descriptor"
                    )
                assert space.wire_cache == cached

    def test_an_out_of_domain_value_is_dropped_on_the_hit_too(
        self, running_server, ssn_database
    ):
        local = Session(ssn_database).confidence(WSSet([{"j": 1}, {"j": 99}])).value
        with running_server(ssn_database) as server:
            with connect(server.host, server.port) as session:
                wire = [["j", 1], ["j", 99]]
                values = [raw_reply(session, wire)["value"] for _ in range(2)]
        assert values == [local, local]
        assert local == pytest.approx(0.2)
