"""Lineage circuits: compile-once / evaluate-many against the engine's truth.

The load-bearing invariant everywhere: a compiled
:class:`~repro.circuit.circuit.Circuit` answers exactly what the interned
engine answers — bit-identical at the recording weights, within 1e-12 under
any re-weighting — because the decomposition's *structure* never depended on
the weights in the first place.
"""

from __future__ import annotations

import pytest

import repro.circuit.circuit as circuit_module
from repro.circuit.recorder import CircuitRecorder
from repro.core.engine import EngineHandle
from repro.core.interned import InternedEngine
from repro.core.probability import ExactConfig
from repro.core.wsset import WSSet
from repro.db.database import ProbabilisticDatabase
from repro.db.session import Session
from repro.db.world_table import WorldTable
from repro.errors import (
    BudgetExceededError,
    InvalidDistributionError,
    UnknownValueError,
    UnknownVariableError,
)
from repro.workloads.hard import HardCaseParameters, generate_hard_instance

TOLERANCE = 1e-12


@pytest.fixture
def world_table() -> WorldTable:
    table = WorldTable()
    table.add_variable("x", {1: 0.3, 2: 0.7})
    table.add_variable("y", {1: 0.4, 2: 0.6})
    table.add_variable("z", {1: 0.2, 2: 0.3, 3: 0.5})
    return table


@pytest.fixture
def ws_set() -> WSSet:
    return WSSet([{"x": 1}, {"y": 1, "z": 2}, {"x": 2, "z": 1}])


def hard_instance(num_descriptors: int = 24):
    return generate_hard_instance(
        HardCaseParameters(
            num_variables=16,
            alternatives=2,
            descriptor_length=4,
            num_descriptors=num_descriptors,
            seed=0,
        )
    )


class TestEvaluate:
    def test_baseline_is_bit_identical_to_confidence(self, world_table, ws_set):
        session = Session(world_table)
        expected = session.confidence(ws_set).value
        circuit = session.compile(ws_set)
        assert circuit.evaluate() == expected

    def test_hard_instance_bit_identical(self):
        instance = hard_instance()
        session = Session(instance.world_table)
        expected = session.confidence(instance.ws_set).value
        assert session.compile(instance.ws_set).evaluate() == expected

    def test_bit_identical_across_configs(self):
        instance = hard_instance(16)
        configs = [
            ExactConfig(),
            ExactConfig(use_independent_partitioning=False),
            ExactConfig(subsumption_every_step=True),
            ExactConfig(memoize=False),
        ]
        for config in configs:
            session = Session(instance.world_table, config)
            expected = session.confidence(instance.ws_set).value
            assert session.compile(instance.ws_set).evaluate() == expected, config

    def test_override_matches_fresh_session(self, world_table, ws_set):
        session = Session(world_table)
        circuit = session.compile(ws_set)
        overrides = {"x": {1: 0.9, 2: 0.1}, "z": {1: 0.6, 2: 0.3, 3: 0.1}}

        reference_table = WorldTable()
        reference_table.add_variable("x", overrides["x"])
        reference_table.add_variable("y", {1: 0.4, 2: 0.6})
        reference_table.add_variable("z", overrides["z"])
        expected = Session(reference_table).confidence(ws_set).value
        assert circuit.evaluate(overrides) == pytest.approx(expected, abs=TOLERANCE)

    def test_zero_weight_branches_stay_evaluable(self):
        # The engine would skip a zero-weight branch; the circuit records it
        # so a re-weighting can revive it.
        table = WorldTable()
        table.add_variable("x", {1: 0.0, 2: 1.0})
        table.add_variable("y", {1: 0.5, 2: 0.5})
        ws = WSSet([{"x": 1, "y": 1}, {"y": 2}])
        session = Session(table)
        circuit = session.compile(ws)
        assert circuit.evaluate() == session.confidence(ws).value
        revived = circuit.evaluate({"x": {1: 1.0, 2: 0.0}})
        reference = WorldTable()
        reference.add_variable("x", {1: 1.0, 2: 0.0})
        reference.add_variable("y", {1: 0.5, 2: 0.5})
        assert revived == pytest.approx(
            Session(reference).confidence(ws).value, abs=TOLERANCE
        )

    def test_zero_weight_values_at_a_sum_node_stay_evaluable(self):
        # At a ⊕-node the engine skips zero-weight values — a mentioned one's
        # branch, and T when every absent value weighs zero — while the
        # circuit records both, so that a re-weighting can revive either.
        table = WorldTable()
        table.add_variable("x", {1: 0.6, 2: 0.0, 3: 0.4, 4: 0.0})
        for name in "abcd":
            table.add_variable(name, {1: 0.5, 2: 0.5})
        ws = WSSet(
            [
                {"x": 1, "a": 1},
                {"x": 2, "b": 1},
                {"x": 3, "c": 1},
                {"x": 1, "d": 2},
                {"a": 2, "b": 2},
                {"b": 2, "c": 2},
                {"c": 1, "d": 1},
            ]
        )
        session = Session(table)
        circuit = session.compile(ws)
        space = circuit.space
        x_id = space.variable_ids["x"]
        x2, x4 = space.value_ids[x_id][2], space.value_ids[x_id][4]
        (node,) = [
            node
            for node in circuit.nodes
            if node[0] == circuit_module.SUM and node[1] == x_id
        ]
        _, _, _, branches, absent_ids, absent_child = node
        assert x2 in dict(branches)  # the zero-weight mentioned value
        assert absent_ids == (x4,) and absent_child is not None  # and T
        assert circuit.evaluate().hex() == session.confidence(ws).value.hex()

        revivals = [{1: 0.6, 2: 0.2, 3: 0.2, 4: 0.0}, {1: 0.6, 2: 0.0, 3: 0.2, 4: 0.2}]
        for revived in revivals:
            reference = WorldTable()
            reference.add_variable("x", revived)
            for name in "abcd":
                reference.add_variable(name, {1: 0.5, 2: 0.5})
            expected = Session(reference).confidence(ws).value
            assert circuit.evaluate({"x": revived}) == pytest.approx(
                expected, abs=TOLERANCE
            )
            assert expected != session.confidence(ws).value

    def test_override_validation(self, world_table, ws_set):
        circuit = Session(world_table).compile(ws_set)
        with pytest.raises(UnknownVariableError):
            circuit.evaluate({"nope": {1: 0.5, 2: 0.5}})
        with pytest.raises(UnknownValueError):
            circuit.evaluate({"x": {1: 0.5, 9: 0.5}})
        with pytest.raises(InvalidDistributionError):
            circuit.evaluate({"x": {1: 0.5, 2: 0.1}})  # does not sum to one
        with pytest.raises(InvalidDistributionError):
            circuit.evaluate({"x": {1: -0.2, 2: 1.2}})
        with pytest.raises(InvalidDistributionError):
            circuit.evaluate({"x": {1: 0.5}})  # partial domain


class TestOneWalk:
    @pytest.mark.parametrize(
        "config",
        [
            ExactConfig(),
            ExactConfig(memoize=False),
            ExactConfig(use_independent_partitioning=False),
            ExactConfig(subsumption_every_step=True),
        ],
        ids=["default", "no-memo", "ve-only", "subsume-every-step"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recorded_nodes_are_the_evaluated_frames(self, config, seed):
        # Recording and evaluating run the one walk: with every weight
        # positive (nothing for the engine to skip) each ⊕-frame the engine
        # folds is one SUM node and each ⊗-frame one PROD node.
        instance = generate_hard_instance(
            HardCaseParameters(
                num_variables=16,
                alternatives=2,
                descriptor_length=4,
                num_descriptors=24,
                seed=seed,
            )
        )
        ws = instance.ws_set
        engine = InternedEngine(instance.world_table, config)
        value = engine.compute_wsset(ws)
        recorder = CircuitRecorder(InternedEngine(instance.world_table, config))
        circuit = recorder.record(recorder.simplified(ws))
        kinds = [node[0] for node in circuit.nodes]
        assert kinds.count(circuit_module.SUM) == engine.stats.variable_nodes > 0
        assert kinds.count(circuit_module.PROD) == engine.stats.independent_nodes
        assert recorder.stats.recursive_calls == engine.stats.recursive_calls
        assert circuit.evaluate() == value


class TestSweepAndGradient:
    def test_sweep_matches_per_point_sessions(self, world_table, ws_set):
        session = Session(world_table)
        circuit = session.compile(ws_set)
        ps = [0.0, 0.2, 0.5, 0.8, 1.0]
        values = circuit.evaluate_sweep("x", ps, value=1)
        for p, value in zip(ps, values):
            table = WorldTable()
            table.add_variable("x", {1: p, 2: 1.0 - p})
            table.add_variable("y", {1: 0.4, 2: 0.6})
            table.add_variable("z", {1: 0.2, 2: 0.3, 3: 0.5})
            expected = Session(table).confidence(ws_set).value
            assert value == pytest.approx(expected, abs=TOLERANCE)

    @pytest.mark.parametrize("numpy_on", [True, False], ids=["numpy", "python"])
    def test_sweep_matches_per_point_evaluate(
        self, world_table, ws_set, monkeypatch, numpy_on
    ):
        # The vectorised grid and the point-by-point fallback answer alike.
        if numpy_on:
            pytest.importorskip("numpy")
        else:
            monkeypatch.setattr(circuit_module, "_np", None)
        circuit = Session(world_table).compile(ws_set)
        ps = [0.0, 0.15, 0.5, 0.85, 1.0]
        for variable in sorted(circuit.variables):
            row = world_table.distribution(variable)
            swept, *others = list(row)
            rest = 1.0 - row[swept]
            values = circuit.evaluate_sweep(variable, ps, value=swept)
            for p, value in zip(ps, values):
                override = {swept: p}
                for other in others:
                    override[other] = row[other] * (1.0 - p) / rest
                expected = circuit.evaluate({variable: override})
                assert value == pytest.approx(expected, abs=TOLERANCE)

    @pytest.mark.parametrize("seed", [2008, 7331])
    def test_numpy_sweep_is_bit_identical_to_the_point_by_point_sweep(
        self, monkeypatch, seed
    ):
        # Both paths accumulate every node in the same order, so they agree
        # to the last bit — here on the what-if targets of the serve_hot
        # benchmark (20-descriptor windows of a Figure 11a n=16 instance,
        # 15 points), swept over their first and last variables.
        pytest.importorskip("numpy")
        from repro.server.__main__ import build_database

        database = build_database(f"figure11a:n=16,r=2,s=4,w=240,seed={seed}")
        descriptors = list(database.relation("HARD").descriptors())
        windows = [WSSet(descriptors[10 * i : 10 * i + 40]) for i in range(20)]
        points = [(i + 1) / 16 for i in range(15)]
        with Session(database) as session:
            circuits = [session.compile(WSSet(list(w)[:20])) for w in windows]

        def sweeps() -> list[list[str]]:
            return [
                [value.hex() for value in circuit.evaluate_sweep(variable, points)]
                for circuit in circuits
                for variable in (min(circuit.variables), max(circuit.variables))
            ]

        vectorised = sweeps()
        monkeypatch.setattr(circuit_module, "_np", None)
        assert sweeps() == vectorised

    def test_sweep_default_value_and_validation(self, world_table, ws_set):
        circuit = Session(world_table).compile(ws_set)
        # value=None sweeps the first domain value.
        assert circuit.evaluate_sweep("x", [0.3]) == pytest.approx(
            circuit.evaluate_sweep("x", [0.3], value=1)
        )
        assert circuit.evaluate_sweep("x", []) == []
        with pytest.raises(UnknownVariableError):
            circuit.evaluate_sweep("nope", [0.5])
        with pytest.raises(UnknownValueError):
            circuit.evaluate_sweep("x", [0.5], value=9)
        with pytest.raises(InvalidDistributionError):
            circuit.evaluate_sweep("x", [1.5])

    def test_gradient_matches_finite_differences(self, world_table, ws_set):
        # evaluate() insists on normalised rows, so probe the directional
        # derivative of moving mass from value b to value a: the difference
        # of the two partials.
        session = Session(world_table)
        circuit = session.compile(ws_set)
        gradient = circuit.gradient()
        step = 1e-6
        for variable in circuit.variables:
            row = dict(world_table.distribution(variable))
            values = sorted(row)
            for a, b in zip(values, values[1:]):
                up, down = dict(row), dict(row)
                up[a] += step
                up[b] -= step
                down[a] -= step
                down[b] += step
                numeric = (
                    circuit.evaluate({variable: up})
                    - circuit.evaluate({variable: down})
                ) / (2 * step)
                # Slots the lineage never touches have zero derivative and
                # are absent from the gradient dict.
                expected = gradient.get((variable, a), 0.0) - gradient.get(
                    (variable, b), 0.0
                )
                assert expected == pytest.approx(numeric, abs=1e-5)

    def test_sensitivity_is_reparameterised_derivative(self, world_table, ws_set):
        circuit = Session(world_table).compile(ws_set)
        step = 1e-6
        p0 = 0.3  # weight of x=1
        up = circuit.evaluate_sweep("x", [p0 + step], value=1)[0]
        down = circuit.evaluate_sweep("x", [p0 - step], value=1)[0]
        numeric = (up - down) / (2 * step)
        assert circuit.sensitivity("x", value=1) == pytest.approx(numeric, abs=1e-5)


class TestCacheAndInvalidation:
    def test_cache_hit_returns_same_object_and_counts(self, world_table, ws_set):
        session = Session(world_table)
        first = session.compile(ws_set)
        second = session.compile(ws_set)
        assert first is second
        stats = session.statistics()
        assert stats.circuits_compiled == 1
        assert stats.circuit_cache_hits == 1
        assert stats.circuit_compile_time > 0.0

    def test_what_if_counts_evals(self, world_table, ws_set):
        session = Session(world_table)
        session.what_if(ws_set, "x", [0.1, 0.9], value=1)
        stats = session.statistics()
        assert stats.circuits_compiled == 1
        assert stats.circuit_evals == 1
        assert stats.circuit_eval_time > 0.0

    def test_conditioning_invalidates_only_touched_circuits(self):
        database = ProbabilisticDatabase()
        table = database.world_table
        table.add_variable("x", {1: 0.3, 2: 0.7})
        table.add_variable("y", {1: 0.4, 2: 0.6})
        table.add_variable("z", {1: 0.5, 2: 0.5})
        # The posterior keeps exactly the variables its relations still use.
        relation = database.create_relation("R", ("A",))
        relation.add({"x": 1}, ("a",))
        relation.add({"y": 1}, ("b",))
        relation.add({"z": 1}, ("c",))
        session = database.session()
        xy = session.compile(WSSet([{"x": 1}, {"y": 1}]))
        z = session.compile(WSSet([{"z": 1}]))

        database.assert_condition(WSSet([{"z": 1}]))

        # Conditioning made z certain, so the posterior table dropped it:
        # a compile of its lineage fails the same way a confidence query
        # would, though the cached z circuit is still in the cache.
        with pytest.raises(UnknownVariableError):
            session.compile(WSSet([{"z": 1}]))
        assert z.evaluate() == pytest.approx(0.5)  # the stale object still works
        # The posterior space extends the prior's ids, so the x/y circuit is
        # a cache hit, still answering what the engine answers.
        xy_after = session.compile(WSSet([{"x": 1}, {"y": 1}]))
        assert xy_after is xy
        assert xy_after.evaluate() == (
            session.confidence(WSSet([{"x": 1}, {"y": 1}])).value
        )

    def test_reweighting_invalidates_touched_circuit(self, world_table, ws_set):
        session = Session(world_table)
        circuit = session.compile(ws_set)
        world_table.set_distribution("x", {1: 0.8, 2: 0.2})
        recompiled = session.compile(ws_set)
        assert recompiled is not circuit
        assert recompiled.evaluate() == session.confidence(ws_set).value

    def test_in_place_mutation_drops_every_circuit(self, world_table):
        # As it drops the memo: even a circuit over variables the mutation
        # did not touch is recompiled.
        session = Session(world_table)
        xy = session.compile(WSSet([{"x": 1}, {"y": 2}]))
        world_table.set_distribution("z", {1: 0.9, 2: 0.05, 3: 0.05})
        recompiled = session.compile(WSSet([{"x": 1}, {"y": 2}]))
        assert recompiled is not xy
        assert recompiled.evaluate() == xy.evaluate() == (
            session.confidence(WSSet([{"x": 1}, {"y": 2}])).value
        )
        assert session.statistics().circuits_compiled == 2

    def test_cached_circuit_survives_an_assert_that_adds_a_variable(self):
        database = ProbabilisticDatabase()
        table = database.world_table
        table.add_variable("x", {1: 0.3, 2: 0.7})
        table.add_variable("y", {1: 0.4, 2: 0.6})
        table.add_variable("z", {1: 0.5, 2: 0.5})
        relation = database.create_relation("R", ("A",))
        relation.add({"x": 1}, ("a",))
        relation.add({"y": 1}, ("b",))
        relation.add({"z": 1}, ("c",))
        session = database.session()
        target = WSSet([{"x": 1}])
        circuit = session.compile(target)

        database.assert_condition(WSSet([{"y": 1}, {"z": 1}]))
        added = set(database.world_table.variables) - {"x", "y", "z"}
        assert added == {"y'"}

        # The circuit is a cache hit re-pointed at the posterior space, so a
        # sweep may name the variable the assert appended.
        points = [0.1, 0.5, 0.9]
        assert session.compile(target) is circuit
        swept = session.what_if(target, "y'", points)
        fresh = Session(database.world_table).what_if(target, "y'", points)
        assert swept == fresh == [0.3, 0.3, 0.3]

    def test_circuit_cache_is_bounded_by_memo_limit(self, world_table):
        session = Session(world_table, ExactConfig(memo_limit=2))
        targets = [
            WSSet([{"x": 1}]),
            WSSet([{"x": 1}, {"y": 2}]),
            WSSet([{"y": 1, "z": 2}, {"x": 2, "z": 1}]),
        ]
        for target in targets:
            circuit = session.compile(target)
            assert len(session.handle._circuit_cache) <= 2
            assert circuit.evaluate() == session.confidence(target).value
        assert session.statistics().circuits_compiled == 3

    def test_explicit_invalidate_clears_circuits(self, world_table, ws_set):
        session = Session(world_table)
        first = session.compile(ws_set)
        session.handle.invalidate()
        assert session.compile(ws_set) is not first


class TestCompileSurface:
    def test_compile_is_budgeted(self):
        instance = hard_instance(40)
        session = Session(instance.world_table)
        with pytest.raises(BudgetExceededError):
            session.compile(instance.ws_set, max_calls=3)

    def test_empty_and_certain_targets(self, world_table):
        session = Session(world_table)
        assert session.compile(WSSet([])).evaluate() == 0.0
        assert session.compile(WSSet([{}])).evaluate() == 1.0


class TestProbabilityMany:
    def test_process_batch_equals_serial_loop(self):
        instance = hard_instance(20)
        descriptors = list(instance.ws_set)
        groups = [
            WSSet(descriptors[0:8]),
            WSSet(descriptors[8:14]),
            WSSet(descriptors[14:20]),
            WSSet([]),
            WSSet([{}]),
        ]
        serial = EngineHandle(instance.world_table, ExactConfig())
        expected = [serial.probability(group) for group in groups]
        pooled = EngineHandle(
            instance.world_table, ExactConfig(), workers=2
        )
        try:
            values = pooled.probability_many(groups)
        finally:
            pooled.close()
        assert values == expected
        assert values[3] == 0.0 and values[4] == 1.0

    def test_confidence_batch_routes_through_pool(self):
        database = ProbabilisticDatabase()
        table = database.world_table
        table.add_variable("x", {1: 0.3, 2: 0.7})
        table.add_variable("y", {1: 0.4, 2: 0.6})
        relation = database.create_relation("R", ("A",))
        relation.add({"x": 1}, ("a",))
        relation.add({"y": 1}, ("a",))
        relation.add({"x": 2, "y": 2}, ("b",))
        # Tuple "c": eight descriptors in two variable-disjoint groups of
        # four, large enough to leave the parent (tiny groups never do).
        for index in range(8):
            table.add_variable(f"z{index}", {1: 0.5, 2: 0.5})
        for index in range(8):
            base = index // 4 * 4
            relation.add(
                {f"z{base + index % 4}": 1, f"z{base + (index + 1) % 4}": 2},
                ("c",),
            )
        serial_rows = database.session().confidence_batch("R")
        with Session(database, workers=2) as pooled:
            pooled_rows = pooled.confidence_batch("R")
            stats = pooled.statistics()
        assert pooled_rows == serial_rows
        # One dispatch for the whole batch, carrying both components of "c".
        assert stats.parallel_computations == 1
        assert stats.parallel_components == 2
