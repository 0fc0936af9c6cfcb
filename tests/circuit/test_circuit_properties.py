"""Randomised properties: circuits agree with the engine everywhere.

Seeded ``random``-module sweeps (the heavier cousin of the hypothesis suite
in ``tests/core/test_properties.py``): on random world tables and ws-sets,
a compiled circuit answers within 1e-12 of the interned engine — at the
recording weights (where it is bit-identical), after re-weighting, after
database conditioning (lineage over a dropped variable must fail to
compile, every other circuit stays cached), and with the process executor
behind the session.
"""

from __future__ import annotations

import random

import pytest

from repro.core.probability import ExactConfig
from repro.db.database import ProbabilisticDatabase
from repro.db.session import Session
from repro.errors import UnknownVariableError
from repro.workloads.random_instances import random_world_table, random_wsset

TOLERANCE = 1e-12

CONFIGS = [
    ExactConfig(),
    ExactConfig(use_independent_partitioning=False),
    ExactConfig(subsumption_every_step=True),
    ExactConfig(memoize=False),
]


def reweighted(rng: random.Random, distribution: dict) -> dict:
    weights = [rng.uniform(0.05, 1.0) for _ in distribution]
    total = sum(weights)
    return {
        value: weight / total for value, weight in zip(sorted(distribution), weights)
    }


@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
def test_circuit_is_bit_identical_at_recording_weights(config_index):
    config = CONFIGS[config_index]
    rng = random.Random(1000 + config_index)
    for case in range(40):
        world_table = random_world_table(
            rng, num_variables=rng.randint(3, 7), max_domain_size=4
        )
        ws_set = random_wsset(
            rng,
            world_table,
            num_descriptors=rng.randint(1, 12),
            max_length=3,
        )
        session = Session(world_table, config)
        expected = session.confidence(ws_set).value
        circuit = session.compile(ws_set)
        assert circuit.evaluate() == expected, (config, case)


def test_circuit_tracks_engine_after_reweighting():
    rng = random.Random(2024)
    for case in range(30):
        world_table = random_world_table(
            rng, num_variables=rng.randint(3, 6), max_domain_size=4
        )
        ws_set = random_wsset(
            rng, world_table, num_descriptors=rng.randint(2, 10), max_length=3
        )
        session = Session(world_table)
        circuit = session.compile(ws_set)
        for _ in range(3):
            variable = rng.choice(sorted(circuit.variables))
            world_table.set_distribution(
                variable, reweighted(rng, world_table.distribution(variable))
            )
            # The session re-decomposes against the mutated table; the
            # handle recompiles the circuit (its variable was touched).
            expected = session.confidence(ws_set).value
            value = session.compile(ws_set).evaluate()
            assert value == pytest.approx(expected, abs=TOLERANCE), case


def test_circuit_survives_conditioning_or_invalidates():
    rng = random.Random(77)
    for case in range(20):
        database = ProbabilisticDatabase()
        world_table = database.world_table
        source = random_world_table(
            rng, num_variables=rng.randint(4, 6), max_domain_size=3
        )
        for variable in source.variables:
            world_table.add_variable(variable, source.distribution(variable))
        variables = sorted(world_table.variables)
        # One tuple per variable keeps every variable "used", so the
        # posterior only drops what conditioning made certain.
        relation = database.create_relation("R", ("A",))
        for index, variable in enumerate(variables):
            domain = sorted(world_table.distribution(variable))
            relation.add({variable: domain[0]}, (f"t{index}",))

        ws_set = random_wsset(
            rng, world_table, num_descriptors=rng.randint(2, 8), max_length=3
        )
        session = database.session()
        circuit = session.compile(ws_set)
        assert circuit.evaluate() == session.confidence(ws_set).value

        # Condition on one alternative of one variable: that variable
        # becomes certain and leaves the table.
        conditioned = rng.choice(variables)
        domain = sorted(world_table.distribution(conditioned))
        from repro.core.wsset import WSSet

        database.assert_condition(WSSet([{conditioned: domain[0]}]))

        # Note: the raw ws-set may mention variables the *circuit* does not
        # (entry subsumption can drop whole descriptors), and re-interning
        # raises on any mentioned-but-dropped variable, same as confidence.
        mentioned = {
            variable for descriptor in ws_set for variable in descriptor.variables
        }
        if conditioned in mentioned:
            with pytest.raises(UnknownVariableError):
                session.compile(ws_set)
        else:
            recompiled = session.compile(ws_set)
            assert recompiled is circuit, case  # a cache hit, not a recompile
            expected = session.confidence(ws_set).value
            assert recompiled.evaluate() == pytest.approx(expected, abs=TOLERANCE)


def test_circuit_under_process_executor():
    rng = random.Random(55)
    world_table = random_world_table(rng, num_variables=6, max_domain_size=3)
    targets = [
        random_wsset(rng, world_table, num_descriptors=rng.randint(2, 9), max_length=3)
        for _ in range(6)
    ]
    serial = Session(world_table)
    expected = [serial.confidence(target).value for target in targets]
    with Session(world_table, workers=2) as session:
        for target, reference in zip(targets, expected):
            circuit = session.compile(target)
            assert circuit.evaluate() == reference
            sweep_variable = sorted(circuit.variables)[0]
            values = circuit.evaluate_sweep(sweep_variable, [0.1, 0.5, 0.9])
            assert all(0.0 <= value <= 1.0 + 1e-9 for value in values)
