"""Stateful differential test of a long-lived session across conditioning.

One session lives through a random sequence of ``ASSERT`` / ``confidence`` /
SQL ``GROUP = g`` reads / ``what_if`` / ``set_distribution`` / ``clear_cache``
/ ``relation.add(...)`` / a side ``conditioned()`` whose prior and posterior
are then both written to, on a small multi-group database.  After every
step its exact answers must be ``==`` those of a fresh session over
``database.copy()`` — which interns the
posterior world table from scratch (dense ids, cold memo), while the
long-lived one keeps the ids and the memo it had before the asserts — and
within 1e-9 of world enumeration.  Each ``ASSERT`` is additionally checked
against ``P(target ∧ condition) / P(condition)`` enumerated on the prior.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import repro
from repro import attr
from repro.core.bruteforce import (
    brute_force_conditional_probability,
    brute_force_probability,
)
from repro.db.algebra import select

GROUPS = 3
MAX_VARIABLES = 12
choices = st.integers(0, 10**6)
weights = st.floats(0.05, 0.95)


def small_database(seed: int) -> repro.ProbabilisticDatabase:
    """``R(GROUP, ID)``: 3 variable-disjoint groups of 4 two-variable rows."""
    rng = random.Random(seed)
    database = repro.ProbabilisticDatabase()
    relation = database.create_relation("R", ("GROUP", "ID"))
    for group in range(GROUPS):
        names = [f"g{group}x{index}" for index in range(3)]
        for name in names:
            database.world_table.add_variable(name, {0: 0.4, 1: 0.6})
        for row in range(4):
            chosen = rng.sample(names, 2)
            relation.add({name: rng.randint(0, 1) for name in chosen}, (group, row))
    return database


def state(database):
    """World-table rows and relation rows, plus each group's SQL read."""
    with repro.connect(database) as session:
        reads = [
            list(session.execute(f"select true from R where GROUP = {g}").ws_set)
            for g in range(GROUPS)
        ]
    rows = [(row.descriptor, row.values) for row in database.relation("R")]
    return database.world_table.rows(), rows, reads


class ConditioningMachine(RuleBasedStateMachine):
    options: dict = {}

    @initialize(seed=st.integers(0, 1000))
    def open_session(self, seed):
        self.database = small_database(seed)
        self.session = repro.connect(self.database, **self.options)
        self.next_id = 100

    def teardown(self):
        if hasattr(self, "session"):
            self.session.close()

    # -- helpers ----------------------------------------------------------
    def group(self, choice):
        return select(self.database.relation("R"), attr("GROUP") == choice % GROUPS)

    def targets(self):
        for group in range(GROUPS):
            yield self.group(group).descriptors()
        yield self.database.relation("R").descriptors()

    def variable(self, choice):
        variables = self.database.world_table.variables
        return variables[choice % len(variables)]

    # -- rules --------------------------------------------------------------
    @rule(group=choices, bound=st.integers(1, 3))
    def assert_rows_of_a_group(self, group, bound):
        group %= GROUPS
        condition = select(self.group(group), attr("ID") < bound).descriptors()
        if condition.is_empty:
            return
        prior = self.database.world_table
        expected = [
            brute_force_conditional_probability(target, condition, prior)
            for target in self.targets()
        ]
        relation = self.database.relation("R")
        touched = len(relation.rows_mentioning(condition.variables()))
        summary = self.session.execute(
            f"assert select true from R where GROUP = {group} and ID < {bound}"
        ).summary
        # Only the rows sharing a variable with the condition were rewritten.
        assert (
            len(self.database.relation("R"))
            == len(relation) - touched + summary.rewritten_tuples
        )
        for target, value in zip(self.targets(), expected):
            assert abs(self.session.confidence(target).value - value) <= 1e-9

    @rule(group=choices)
    def read_a_group(self, group):
        target = self.group(group).descriptors()
        first = self.session.confidence(target).value
        assert self.session.confidence(target).value == first

    @rule(group=choices)
    def read_a_group_through_sql(self, group):
        # The planner narrows GROUP = g through the equality index; the
        # answer must be the algebra's selection, descriptor for descriptor.
        target = self.group(group).descriptors()
        result = self.session.execute(
            f"select true from R where GROUP = {group % GROUPS}"
        )
        assert list(result.ws_set) == list(target)
        assert result.confidence == self.session.confidence(target).value

    @rule(group=choices, bound=st.integers(1, 3), choice=choices)
    def condition_aside_then_mutate_both_sides(self, group, bound, choice):
        # A non-mutating conditioned() shares index lists and domain dicts
        # between prior and posterior; a write on either side must not be
        # seen by the other.
        condition = select(self.group(group), attr("ID") < bound).descriptors()
        if condition.is_empty:
            return
        self.session.execute(f"select true from R where GROUP = {group % GROUPS}")
        posterior, _ = self.session.conditioned(condition)
        for changed, kept in ((posterior, self.database), (self.database, posterior)):
            before = state(kept)
            table = changed.world_table
            variable = table.variables[choice % len(table)]
            table.add_alternative(variable, ("extra", self.next_id), 0.0)
            changed.relation("R").add(
                {variable: table.domain(variable)[0]}, (group % GROUPS, self.next_id)
            )
            self.next_id += 1
            assert state(kept) == before

    @rule(group=choices, choice=choices, ps=st.lists(weights, min_size=1, max_size=3))
    def sweep_a_variable(self, group, choice, ps):
        target = self.group(group).descriptors()
        mentioned = sorted(target.variables())
        if not mentioned:
            return
        variable = mentioned[choice % len(mentioned)]
        swept = self.session.what_if(target, variable, ps)
        with repro.connect(self.database.copy()) as fresh:
            assert swept == fresh.what_if(target, variable, ps)
        table = self.database.world_table
        first, *rest = table.domain(variable)
        for p, value in zip(ps, swept):
            reweighted = table.copy()
            old = table.distribution(variable)
            scale = (1.0 - p) / (1.0 - old[first])
            reweighted.set_distribution(
                variable, {first: p, **{v: old[v] * scale for v in rest}}
            )
            assert abs(value - brute_force_probability(target, reweighted)) <= 1e-9

    @rule(choice=choices, p=weights)
    def reweight_a_variable(self, choice, p):
        table = self.database.world_table
        variable = self.variable(choice)
        first, *rest = table.domain(variable)
        share = (1.0 - p) / len(rest) if rest else 0.0
        table.set_distribution(
            variable, {first: p if rest else 1.0, **{v: share for v in rest}}
        )

    @rule()
    def clear_cache(self):
        self.session.clear_cache()

    @rule(group=choices, choice=choices, value=st.integers(0, 1), fresh=st.booleans())
    def add_a_row(self, group, choice, value, fresh):
        table = self.database.world_table
        if fresh and len(table) < MAX_VARIABLES:
            variable = f"n{self.next_id}"
            table.add_variable(variable, {0: 0.5, 1: 0.5})
        else:
            variable = self.variable(choice)
            value = table.domain(variable)[value % len(table.domain(variable))]
        relation = self.database.relation("R")
        relation.add({variable: value}, (group % GROUPS, self.next_id))
        self.next_id += 1

    # -- the differential check, after every step --------------------------
    @invariant()
    def answers_match_fresh_session_and_enumeration(self):
        table = self.database.world_table
        with repro.connect(self.database.copy()) as fresh:
            for target in self.targets():
                value = self.session.confidence(target).value
                assert value == fresh.confidence(target).value
                assert abs(value - brute_force_probability(target, table)) <= 1e-9


@pytest.mark.parametrize(
    "options, examples",
    [
        ({}, 20),
        ({"workers": 2}, 3),
    ],
    ids=["serial", "process"],
)
def test_long_lived_session_matches_fresh_sessions_and_enumeration(options, examples):
    machine = type("Machine", (ConditioningMachine,), {"options": options})
    machine.TestCase.settings = settings(
        max_examples=examples,
        stateful_step_count=12,
        deadline=None,
        derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    machine.TestCase().runTest()
