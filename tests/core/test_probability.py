"""Unit tests for exact confidence computation (Section 4.3, Figure 7)."""

from __future__ import annotations

import random

import pytest

from repro.core.bruteforce import brute_force_probability
from repro.core.probability import (
    ExactConfig,
    confidence,
    probability,
    probability_with_stats,
)
from repro.core.wsset import WSSet
from repro.db.world_table import WorldTable
from repro.errors import BudgetExceededError
from repro.workloads.random_instances import random_world_table, random_wsset


class TestPaperExamples:
    def test_example_47(self, figure3_wsset, figure3_world_table):
        assert probability(figure3_wsset, figure3_world_table) == pytest.approx(0.7578)

    def test_example_47_with_ve(self, figure3_wsset, figure3_world_table):
        assert probability(
            figure3_wsset, figure3_world_table, ExactConfig.ve()
        ) == pytest.approx(0.7578)

    def test_fd_condition_confidence_is_044(self, figure2_world_table):
        """Introduction: P(SSN -> NAME holds) = .2 + .8·.3 = .44."""
        condition = WSSet([{"j": 1}, {"j": 7, "b": 4}])
        assert probability(condition, figure2_world_table) == pytest.approx(0.44)

    def test_confidence_alias(self, figure3_wsset, figure3_world_table):
        assert confidence(figure3_wsset, figure3_world_table) == probability(
            figure3_wsset, figure3_world_table
        )


class TestEdgeCases:
    def test_empty_wsset_has_probability_zero(self, figure3_world_table):
        assert probability(WSSet.empty(), figure3_world_table) == 0.0

    def test_universal_wsset_has_probability_one(self, figure3_world_table):
        assert probability(WSSet.universal(), figure3_world_table) == 1.0

    def test_single_assignment(self, figure3_world_table):
        assert probability(WSSet([{"x": 2}]), figure3_world_table) == pytest.approx(0.4)

    def test_exhaustive_alternatives_sum_to_one(self, figure3_world_table):
        s = WSSet([{"x": 1}, {"x": 2}, {"x": 3}])
        assert probability(s, figure3_world_table) == pytest.approx(1.0)

    def test_mutex_descriptors_add_up(self, figure3_world_table):
        s = WSSet([{"x": 1, "y": 1}, {"x": 2, "y": 2}])
        assert probability(s, figure3_world_table) == pytest.approx(
            0.1 * 0.2 + 0.4 * 0.8
        )

    def test_independent_descriptors_inclusion_exclusion(self, figure3_world_table):
        s = WSSet([{"u": 1}, {"v": 1}])
        assert probability(s, figure3_world_table) == pytest.approx(1 - 0.3 * 0.5)

    def test_subsumed_descriptor_does_not_change_probability(self, figure3_world_table):
        without = WSSet([{"x": 1}])
        with_subsumed = WSSet([{"x": 1}, {"x": 1, "y": 2}])
        assert probability(with_subsumed, figure3_world_table) == pytest.approx(
            probability(without, figure3_world_table)
        )

    def test_zero_probability_alternative(self):
        w = WorldTable()
        w.add_variable("x", {1: 0.0, 2: 1.0})
        assert probability(WSSet([{"x": 1}]), w) == pytest.approx(0.0)
        assert probability(WSSet([{"x": 2}]), w) == pytest.approx(1.0)


class TestConfigurations:
    @pytest.mark.parametrize(
        "config",
        [
            ExactConfig.indve("minlog"),
            ExactConfig.indve("minmax"),
            ExactConfig.ve("minlog"),
            ExactConfig.ve("minmax"),
            ExactConfig.indve("frequency"),
            ExactConfig.indve("first"),
            ExactConfig.indve("minlog", memoize=False),
            ExactConfig.indve("minlog", subsumption_every_step=True),
            ExactConfig.indve("minlog", simplify_subsumed=False),
        ],
        ids=lambda c: c.label + ("" if c.memoize else "-memo")
        + ("+substeps" if c.subsumption_every_step else "")
        + ("-simplify" if not c.simplify_subsumed else ""),
    )
    def test_all_configurations_agree_with_brute_force(
        self, config, figure3_wsset, figure3_world_table
    ):
        expected = brute_force_probability(figure3_wsset, figure3_world_table)
        assert probability(
            figure3_wsset, figure3_world_table, config
        ) == pytest.approx(expected)

    def test_labels(self):
        assert ExactConfig.indve("minlog").label == "indve(minlog)"
        assert ExactConfig.ve("minmax").label == "ve(minmax)"

    def test_with_heuristic(self):
        config = ExactConfig.indve("minlog").with_heuristic("minmax")
        assert config.label == "indve(minmax)"
        assert config.use_independent_partitioning

    @pytest.mark.parametrize("field", ["memo_limit"])
    def test_memo_limits_are_validated_at_construction(self, field):
        # Not on the first request of a server booted with the config.
        with pytest.raises(ValueError, match=f"{field} must be at least 2"):
            ExactConfig(**{field: 1})
        assert getattr(ExactConfig(**{field: 2}), field) == 2

    def test_unknown_heuristic_is_rejected_at_construction(self):
        # Not at the first query of a session opened with the config: the
        # engine behind a session is built lazily.
        with pytest.raises(ValueError, match="unknown heuristic 'minlgo'"):
            ExactConfig(heuristic="minlgo")
        with pytest.raises(ValueError, match="unknown heuristic"):
            ExactConfig.ve("minlgo")
        with pytest.raises(ValueError, match="unknown heuristic"):
            ExactConfig().with_heuristic("minlgo")

    def test_one_default_heuristic(self):
        assert ExactConfig.indve() == ExactConfig()
        assert ExactConfig.ve() == ExactConfig(use_independent_partitioning=False)
        assert ExactConfig().heuristic == "frequency"

    def test_one_engine_one_sampler_no_selectors(self):
        """The pre-interning forks are gone, not hidden behind a default."""
        import dataclasses
        import inspect

        import repro.db.confidence
        from repro.approx import (
            KarpLubyEstimator,
            karp_luby_confidence,
            naive_monte_carlo_confidence,
        )
        from repro.core.conditioning import condition_wsset

        fields = {spec.name: spec for spec in dataclasses.fields(ExactConfig)}
        assert "engine" not in fields
        assert fields["memoize"].default is True
        assert "implementation" not in inspect.signature(condition_wsset).parameters
        for sampler in (
            KarpLubyEstimator,
            karp_luby_confidence,
            naive_monte_carlo_confidence,
        ):
            assert "interned" not in inspect.signature(sampler).parameters
        public = {
            name
            for name, value in vars(repro.db.confidence).items()
            if getattr(value, "__module__", None) == "repro.db.confidence"
        }
        assert public == {"ConfidenceRow"}

    def test_stats_report_node_kinds(self):
        """The recursion accounts every ws-tree node kind it visits."""
        w = WorldTable()
        for index in range(18):
            w.add_variable(index, {0: 0.5, 1: 0.5})
        # Two variable-disjoint chains, each too long for the closed form at
        # its root: an ⊗-node over two ⊕-subtrees that end in closed forms.
        chains = [range(8), range(9, 17)]
        s = WSSet([{i: 0, i + 1: 0} for chain in chains for i in chain])
        result = probability_with_stats(s, w)
        assert result.probability == pytest.approx(brute_force_probability(s, w))
        assert result.stats.independent_nodes >= 1
        assert result.stats.variable_nodes >= 2
        assert result.stats.closed_form_nodes >= 1

    def test_interned_stats_report_closed_form_nodes(
        self, figure3_wsset, figure3_world_table
    ):
        """The interned engine resolves the small Figure 3 ws-set in closed form."""
        result = probability_with_stats(figure3_wsset, figure3_world_table)
        assert result.probability == pytest.approx(0.7578)
        assert result.stats.recursive_calls >= 1
        assert result.stats.closed_form_nodes >= 1

    def test_memoization_counts_cache_hits(self):
        w = WorldTable()
        for name in ("a", "b", "c"):
            w.add_variable(name, {0: 0.5, 1: 0.5})
        # Both a-branches leave exactly the same residual problem over b, c.
        s = WSSet([{"a": 0, "b": 0, "c": 0}, {"a": 1, "b": 0, "c": 0}, {"b": 1, "c": 1}])
        result = probability_with_stats(
            s, w, ExactConfig.indve("minlog", memoize=True)
        )
        assert result.probability == pytest.approx(brute_force_probability(s, w))

    def test_budget_max_calls(self):
        rng = random.Random(7)
        world_table = random_world_table(rng, num_variables=8, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=12, max_length=3)
        with pytest.raises(BudgetExceededError):
            probability(
                ws_set,
                world_table,
                ExactConfig.indve("minlog", max_calls=2),
            )


def _warm_up_with_seconds(ws_set, world_table):
    from repro.core.procpool import ProcessPoolBackend

    backend = ProcessPoolBackend(1)
    try:
        backend.warm_up(per_worker_seconds=0.1)
    finally:
        backend.close()


def _deleted_option_calls():
    """One call per deleted keyword: options that only tests, or nobody, set."""
    from repro.approx import (
        KarpLubyEstimator,
        karp_luby_confidence,
        naive_monte_carlo_confidence,
    )
    from repro.core.elimination import descriptor_elimination_probability
    from repro.core.interned import InternedEngine
    from repro.core.procpool import ProcessPoolBackend
    from repro.db.database import ProbabilisticDatabase
    from repro.db.session import Session
    from repro.server.server import ConfidenceServer

    def server(**options):
        return lambda s, w: ConfidenceServer(ProbabilisticDatabase(w), **options)

    return {
        "KarpLubyEstimator-estimator": lambda s, w: KarpLubyEstimator(
            s, w, estimator="coverage"
        ),
        "karp_luby_confidence-estimator": lambda s, w: karp_luby_confidence(
            s, w, estimator="coverage"
        ),
        "karp_luby_confidence-use_optimal_stopping": lambda s, w: (
            karp_luby_confidence(s, w, use_optimal_stopping=False)
        ),
        "naive_monte_carlo_confidence-iterations": lambda s, w: (
            naive_monte_carlo_confidence(s, w, iterations=100)
        ),
        "descriptor_elimination_probability-order": lambda s, w: (
            descriptor_elimination_probability(s, w, order="shortest-first")
        ),
        "InternedEngine-record_elimination_order": lambda s, w: InternedEngine(
            w, ExactConfig(), record_elimination_order=False
        ),
        "ProcessPoolBackend-start_method": lambda s, w: ProcessPoolBackend(
            1, start_method="spawn"
        ),
        "ProcessPoolBackend.warm_up-per_worker_seconds": _warm_up_with_seconds,
        "ConfidenceServer-config": server(config=ExactConfig()),
        "ConfidenceServer-epsilon": server(epsilon=0.1),
        "ConfidenceServer-delta": server(delta=0.01),
        "Session-memo_limit": lambda s, w: Session(w, memo_limit=64),
    }


@pytest.mark.parametrize("option", sorted(_deleted_option_calls()))
def test_deleted_option_raises_type_error(option, figure3_wsset, figure3_world_table):
    """The deleted switches are gone, not ignored: passing one is a TypeError."""
    call = _deleted_option_calls()[option]
    with pytest.raises(TypeError):
        call(figure3_wsset, figure3_world_table)


class TestRandomisedAgreement:
    @pytest.mark.parametrize("seed", range(20))
    def test_indve_matches_brute_force(self, seed):
        rng = random.Random(seed)
        world_table = random_world_table(rng, num_variables=5, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=6, max_length=3)
        assert probability(ws_set, world_table) == pytest.approx(
            brute_force_probability(ws_set, world_table)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_ve_and_indve_agree(self, seed):
        rng = random.Random(500 + seed)
        world_table = random_world_table(rng, num_variables=5, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=6, max_length=3)
        assert probability(ws_set, world_table, ExactConfig.ve()) == pytest.approx(
            probability(ws_set, world_table, ExactConfig.indve())
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_heuristic_choice_does_not_change_the_result(self, seed):
        rng = random.Random(900 + seed)
        world_table = random_world_table(rng, num_variables=5, max_domain_size=3)
        ws_set = random_wsset(rng, world_table, num_descriptors=5, max_length=3)
        values = {
            heuristic: probability(ws_set, world_table, ExactConfig.indve(heuristic))
            for heuristic in ("minlog", "minmax", "frequency", "first")
        }
        reference = values["minlog"]
        for value in values.values():
            assert value == pytest.approx(reference)
