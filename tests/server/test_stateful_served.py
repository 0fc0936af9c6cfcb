"""Stateful differential test of a served database across conditioning.

One in-process server lives through a random sequence of ``ASSERT`` /
``confidence`` / ``confidence_many`` / ``what_if`` frames from two
connections.  After every step every served value must be ``==`` that of a
fresh local session over a copy of the server's database — in particular
the first read after an ``ASSERT`` must never be answered on the event loop
from pre-assert state — and on the serial executor a repeated read must be
an inline answer, so the check is not vacuously exercising the worker route.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import repro
from repro import attr
from repro.db.algebra import select
from repro.server import connect

GROUPS = 3
ROWS = 8
choices = st.integers(0, 10**6)
weights = st.floats(0.05, 0.95)


def grouped_database(seed: int) -> repro.ProbabilisticDatabase:
    """``R(GROUP, ID)``: 3 variable-disjoint groups of 8 two-variable rows.

    Eight rows over four variables keep a group's ws-set above the engine's
    closed-form limit, so reads are memo entries rather than recomputations.
    """
    rng = random.Random(seed)
    database = repro.ProbabilisticDatabase()
    relation = database.create_relation("R", ("GROUP", "ID"))
    for group in range(GROUPS):
        names = [f"g{group}x{index}" for index in range(4)]
        for name in names:
            database.world_table.add_variable(name, {0: 0.3, 1: 0.45, 2: 0.25})
        for row in range(ROWS):
            chosen = rng.sample(names, 2)
            relation.add({name: rng.randint(0, 2) for name in chosen}, (group, row))
    return database


class ServedMachine(RuleBasedStateMachine):
    options: dict = {}
    running_server = None  # the conftest factory, set per parametrisation

    @initialize(seed=st.integers(0, 1000))
    def boot(self, seed):
        self.thread = self.running_server(grouped_database(seed), **self.options)
        self.thread.__enter__()
        self.sessions = [
            connect(self.thread.host, self.thread.port) for _ in range(2)
        ]

    def teardown(self):
        for session in getattr(self, "sessions", ()):
            session.close()
        if hasattr(self, "thread"):
            self.thread.__exit__(None, None, None)

    # -- helpers ----------------------------------------------------------
    @property
    def database(self):
        return self.thread.server.database

    def group(self, choice):
        return select(self.database.relation("R"), attr("GROUP") == choice % GROUPS)

    def targets(self):
        targets = [self.group(group).descriptors() for group in range(GROUPS)]
        return [*targets, self.database.relation("R").descriptors()]

    def fresh(self):
        return repro.connect(self.database.copy())

    def inline(self) -> int:
        return self.sessions[0].server_stats()["server"]["inline_answers_total"]

    # -- rules --------------------------------------------------------------
    @rule(group=choices, bound=st.integers(1, 3))
    def assert_rows_of_a_group(self, group, bound):
        group %= GROUPS
        if select(self.group(group), attr("ID") < bound).descriptors().is_empty:
            return
        self.sessions[0].execute(
            f"assert select true from R where GROUP = {group} and ID < {bound}"
        )
        # The very next reads, from either connection, see the posterior.
        with self.fresh() as fresh:
            for session in self.sessions:
                for target in self.targets():
                    assert session.confidence(target).value == fresh.confidence(target).value

    @rule(group=choices, connection=st.integers(0, 1), method=st.sampled_from(["exact", "hybrid"]))
    def read_a_group(self, group, connection, method):
        target = self.group(group).descriptors()
        with self.fresh() as fresh:
            expected = fresh.confidence(target).value
        for _ in range(2):
            result = self.sessions[connection].confidence(target, method)
            assert result.value == expected and result.method == "exact"

    @rule(order=st.permutations(range(GROUPS + 1)), connection=st.integers(0, 1))
    def read_a_batch(self, order, connection):
        targets = self.targets()
        batch = [targets[index] for index in order]
        with self.fresh() as fresh:
            expected = [fresh.confidence(target).value for target in batch]
        results = self.sessions[connection].confidence_many(batch)
        assert [result.value for result in results] == expected

    @rule(group=choices, choice=choices, ps=st.lists(weights, min_size=1, max_size=3))
    def sweep_a_variable(self, group, choice, ps):
        target = self.group(group).descriptors()
        mentioned = sorted(target.variables())
        if not mentioned:
            return
        variable = mentioned[choice % len(mentioned)]
        with self.fresh() as fresh:
            expected = fresh.what_if(target, variable, ps)
        for session in self.sessions:
            assert session.what_if(target, variable, ps) == expected

    # -- the differential check, after every step --------------------------
    @invariant()
    def served_answers_match_a_fresh_local_session(self):
        targets = self.targets()
        with self.fresh() as fresh:
            expected = [fresh.confidence(target).value for target in targets]
        for session in self.sessions:
            assert [session.confidence(target).value for target in targets] == expected
        # Everything is warm now: the same reads again are inline answers
        # (on the process executor only where a ws-set is memoised whole).
        before = self.inline()
        results = self.sessions[1].confidence_many(targets)
        assert [result.value for result in results] == expected
        answered_inline = self.inline() - before
        if not self.options:
            assert answered_inline == len(targets)


@pytest.mark.parametrize(
    "options, examples",
    [({}, 10), ({"workers": 2}, 2)],
    ids=["serial", "process"],
)
def test_served_answers_match_fresh_sessions_across_asserts(
    running_server, options, examples
):
    machine = type(
        "Machine",
        (ServedMachine,),
        {"options": options, "running_server": staticmethod(running_server)},
    )
    machine.TestCase.settings = settings(
        max_examples=examples,
        stateful_step_count=10,
        deadline=None,
        derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    machine.TestCase().runTest()
