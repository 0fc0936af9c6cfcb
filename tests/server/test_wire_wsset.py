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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.descriptors import WSDescriptor
from repro.core.wsset import WSSet
from repro.db.api import target_from_payload
from repro.db.session import ConfidenceRequest, Session
from repro.db.world_table import WorldTable
from repro.errors import DescriptorError
from repro.server import connect

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
