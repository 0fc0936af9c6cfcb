"""Shared fixtures: the paper's worked examples and small random instances."""

from __future__ import annotations

import random

import pytest

from repro.core.wsset import WSSet
from repro.db.database import ProbabilisticDatabase
from repro.db.world_table import WorldTable


@pytest.fixture
def figure2_world_table() -> WorldTable:
    """The world table of Figure 2: John's and Bill's SSN variables."""
    w = WorldTable()
    w.add_variable("j", {1: 0.2, 7: 0.8})
    w.add_variable("b", {4: 0.3, 7: 0.7})
    return w


@pytest.fixture
def figure3_world_table() -> WorldTable:
    """The world table W of Figure 3 (five variables x, y, z, u, v)."""
    w = WorldTable()
    w.add_variable("x", {1: 0.1, 2: 0.4, 3: 0.5})
    w.add_variable("y", {1: 0.2, 2: 0.8})
    w.add_variable("z", {1: 0.4, 2: 0.6})
    w.add_variable("u", {1: 0.7, 2: 0.3})
    w.add_variable("v", {1: 0.5, 2: 0.5})
    return w


@pytest.fixture
def figure3_wsset() -> WSSet:
    """The ws-set S of Figure 3 (probability 0.7578, Example 4.7)."""
    return WSSet(
        [
            {"x": 1},
            {"x": 2, "y": 1},
            {"x": 2, "z": 1},
            {"u": 1, "v": 1},
            {"u": 2},
        ]
    )


@pytest.fixture
def ssn_database() -> ProbabilisticDatabase:
    """The SSN/NAME database of Figure 1 / Figure 2 (John and Bill)."""
    db = ProbabilisticDatabase()
    db.world_table.add_variable("j", {1: 0.2, 7: 0.8})
    db.world_table.add_variable("b", {4: 0.3, 7: 0.7})
    relation = db.create_relation("R", ("SSN", "NAME"))
    relation.add({"j": 1}, (1, "John"))
    relation.add({"j": 7}, (7, "John"))
    relation.add({"b": 4}, (4, "Bill"))
    relation.add({"b": 7}, (7, "Bill"))
    return db


@pytest.fixture
def example52_database(figure3_world_table) -> ProbabilisticDatabase:
    """The U-relational database of Example 5.2 (Figure 9's U-relation)."""
    db = ProbabilisticDatabase(figure3_world_table)
    relation = db.create_relation("U", ("A",))
    relation.add({"y": 2, "u": 1}, ("a1",))
    relation.add({"u": 1, "v": 2}, ("a2",))
    return db


@pytest.fixture
def rng() -> random.Random:
    """A deterministically seeded RNG for tests that need randomness."""
    return random.Random(20080824)  # the VLDB 2008 start date


@pytest.fixture
def hard_database():
    """Factory: ``hard_database(num_descriptors, seed) -> (database, descriptors)``.

    A Figure 11a #P-hard instance (16 boolean variables, 4-assignment
    descriptors) as a database whose relation ``HARD(ID)`` has one row per
    descriptor; slices of ``descriptors`` make ws-sets past the engine's
    closed-form limit, i.e. real memo entries.
    """
    from repro.workloads.hard import HardCaseParameters, generate_hard_instance

    def build(num_descriptors: int = 160, seed: int = 3):
        instance = generate_hard_instance(
            HardCaseParameters(
                num_variables=16, alternatives=2, descriptor_length=4,
                num_descriptors=num_descriptors, seed=seed,
            )
        )
        database = ProbabilisticDatabase(instance.world_table)
        relation = database.create_relation("HARD", ("ID",))
        for index, descriptor in enumerate(instance.ws_set):
            relation.add(descriptor.as_dict(), (index,))
        return database, list(instance.ws_set)

    return build


@pytest.fixture(scope="module")
def process_session_factory():
    """Process-pool sessions (``workers=2``) that share one module lifetime.

    Spawned worker processes are the expensive part of the pooled tests;
    sessions are closed at module teardown rather than per test.
    """
    from repro.db.session import Session

    sessions = []

    def factory(source, config=None, **options):
        session = Session(source, config, workers=2, **options)
        sessions.append(session)
        return session

    yield factory
    for session in sessions:
        session.close()
