"""Property tests of the conditioning-subproblem memo (PR 8 tentpole).

The central guarantee: memoised conditioning is **bit-identical** to the
unmemoised recursion — same confidence, same rewritten descriptors, same new
variables with the same float weights — within one run (sibling-branch hits),
across calls through a shared :class:`ConditioningMemo`, under tiny memo
limits that force evictions, and across configurations.  On top of that: the
memoised path still agrees with brute force,
the handle-level cache invalidates selectively on re-weighting, and an
interleaved assert/confidence/what_if session never serves stale posteriors.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bruteforce import (
    brute_force_posterior_worlds,
    brute_force_probability,
)
from repro.core.conditioning import (
    ConditioningMemo,
    condition_wsset,
    conditioned_world_table,
)
from repro.core.descriptors import WSDescriptor
from repro.core.probability import ExactConfig, probability
from repro.core.wsset import WSSet
from repro.db.session import Session
from repro.db.world_table import WorldTable
from repro.errors import ZeroProbabilityConditionError
from repro.workloads.random_instances import (
    random_tuple_independent_database,
    random_world_table,
    random_wsset,
)

MEMO_OFF = ExactConfig(condition_memoize=False)

#: ≥5 configurations spanning memo limits, subsumption and heuristics.  The
#: conditioning recursion always runs in-process ("serial" in the test ids);
#: the options key must keep entries from crossing between structurally
#: different recursions (subsumption, heuristic).
CONFIGS = [
    ExactConfig(),
    ExactConfig(condition_memo_limit=2),
    ExactConfig(condition_memo_limit=64),
    ExactConfig(subsumption_every_step=True),
    ExactConfig(heuristic="minmax", condition_memo_limit=8),
]


def signature(result):
    """Everything observable about a conditioning result, for exact ``==``."""
    delta = result.delta_world_table
    return (
        result.confidence,
        {tag: list(descs) for tag, descs in result.rewritten.items()},
        {variable: delta.distribution(variable) for variable in delta.variables},
        dict(result.variable_sources),
    )


def random_case(seed, *, num_variables=5, condition_size=4, tuple_count=5):
    rng = random.Random(seed)
    world_table = random_world_table(
        rng, num_variables=num_variables, max_domain_size=3
    )
    condition = random_wsset(
        rng, world_table, num_descriptors=condition_size, max_length=3
    )
    tuples = [
        (f"t{i}", descriptor)
        for i, descriptor in enumerate(
            random_wsset(rng, world_table, num_descriptors=tuple_count, max_length=2)
        )
    ]
    return world_table, condition, tuples


def sibling_heavy_case(fanout=4, parts=3):
    """A condition whose ⊕-branches leave *identical* residual subproblems.

    Every descriptor pairs one alternative of the fan-out variable ``w`` with
    one member of a fixed residual set over the ``x`` variables: whichever
    branch of ``w`` the recursion takes, the remaining condition (and the
    remaining tuples, which never mention ``w``) are the same — the
    within-run sibling hits the memo exists for.
    """
    world_table = WorldTable()
    world_table.add_variable("w", {j: 1.0 / fanout for j in range(fanout)})
    for i in range(parts + 1):
        world_table.add_variable(f"x{i}", {0: 0.6, 1: 0.4})
    residual = [{f"x{i}": 0, f"x{i + 1}": 1} for i in range(parts)]
    condition = WSSet(
        [{"w": j, **part} for j in range(fanout) for part in residual]
    )
    tuples = [
        (f"t{i}", WSDescriptor({f"x{i}": 0})) for i in range(parts)
    ]
    return world_table, condition, tuples


class TestBitIdentity:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: (
        f"serial-limit{c.condition_memo_limit}"
        f"{'-subs' if c.subsumption_every_step else ''}"
        f"{'-' + c.heuristic if c.heuristic != 'minlog' else ''}"
    ))
    @pytest.mark.parametrize("seed", range(8))
    def test_memoised_equals_unmemoised_across_configs(self, seed, config):
        world_table, condition, tuples = random_case(61000 + seed)
        off_config = ExactConfig(
            subsumption_every_step=config.subsumption_every_step,
            heuristic=config.heuristic,
            condition_memoize=False,
        )
        try:
            off = condition_wsset(condition, tuples, world_table, off_config)
        except ZeroProbabilityConditionError:
            with pytest.raises(ZeroProbabilityConditionError):
                condition_wsset(condition, tuples, world_table, config)
            return
        memo = ConditioningMemo(config.condition_memo_limit)
        first = condition_wsset(condition, tuples, world_table, config, memo=memo)
        second = condition_wsset(condition, tuples, world_table, config, memo=memo)
        assert signature(first) == signature(off)
        assert signature(second) == signature(off)
        # The repeated call answers from the cache, not by luck.
        assert memo.hits >= 1

    @pytest.mark.parametrize("seed", range(6))
    def test_memoised_matches_brute_force_marginals(self, seed):
        world_table, condition, tuples = random_case(67000 + seed)
        memo = ConditioningMemo()
        try:
            interned = condition_wsset(condition, tuples, world_table, memo=memo)
        except ZeroProbabilityConditionError:
            pytest.skip("sampled an unsatisfiable condition")
        assert interned.confidence == pytest.approx(
            brute_force_probability(condition, world_table), abs=1e-12
        )
        posterior = brute_force_posterior_worlds(condition, world_table)
        combined = conditioned_world_table(world_table, interned)
        for tag, descriptor in tuples:
            expected = sum(
                weight
                for world, weight in posterior
                if descriptor.is_satisfied_by(world)
            )
            ws_set = WSSet(interned.rewritten.get(tag, ()))
            actual = probability(ws_set, combined) if len(ws_set) else 0.0
            assert actual == pytest.approx(expected, abs=1e-9), tag

    def test_sibling_branches_hit_within_one_run(self):
        world_table, condition, tuples = sibling_heavy_case()
        memo = ConditioningMemo()
        on = condition_wsset(condition, tuples, world_table, memo=memo)
        off = condition_wsset(condition, tuples, world_table, MEMO_OFF)
        assert signature(on) == signature(off)
        assert memo.hits >= 1  # identical sibling subproblems replayed

    def test_tiny_limit_forces_evictions_without_changing_results(self):
        world_table, condition, tuples = random_case(71000, num_variables=7)
        memo = ConditioningMemo(2)
        on = condition_wsset(condition, tuples, world_table, memo=memo)
        off = condition_wsset(condition, tuples, world_table, MEMO_OFF)
        assert signature(on) == signature(off)
        assert memo.evictions > 0
        assert len(memo) <= 2

    def test_deep_spine_replays_iteratively(self):
        # The 1200-variable single-branch spine of the interned suite, run
        # twice through one memo: the second run is a single root hit whose
        # replay must rebuild a 1200-deep op spine without recursion.
        count = 1200
        world_table = WorldTable()
        assignments = {}
        for index in range(count):
            world_table.add_variable(f"x{index}", {0: 0.9999, 1: 0.0001})
            assignments[f"x{index}"] = 0
        condition = WSSet([assignments])
        tuples = [("t", WSDescriptor(assignments))]
        memo = ConditioningMemo()
        first = condition_wsset(condition, tuples, world_table, memo=memo)
        second = condition_wsset(condition, tuples, world_table, memo=memo)
        assert memo.hits >= 1
        assert first.confidence == second.confidence == pytest.approx(0.9999**count)
        assert second.rewritten["t"] == [WSDescriptor({})]
        assert signature(first) == signature(second)

    def test_alien_tuple_variables_round_trip_through_cache(self, figure2_world_table):
        condition = WSSet([{"j": 1}])
        tuples = [("t", WSDescriptor({"b": 4, "ghost": 9}))]
        memo = ConditioningMemo()
        for _ in range(2):
            result = condition_wsset(
                condition, tuples, figure2_world_table, memo=memo
            )
            (descriptor,) = result.rewritten["t"]
            assert descriptor.get("ghost") == 9
            assert descriptor.get("b") == 4
        assert memo.hits >= 1


class TestSelectiveInvalidation:
    def test_reweighting_unrelated_variable_keeps_entries(self):
        world_table, condition, tuples = sibling_heavy_case()
        world_table.add_variable("lonely", {0: 0.5, 1: 0.5})
        memo = ConditioningMemo()
        off = condition_wsset(condition, tuples, world_table, MEMO_OFF)
        condition_wsset(condition, tuples, world_table, memo=memo)
        entries_before = len(memo)
        assert entries_before > 0
        world_table.set_distribution("lonely", {0: 0.1, 1: 0.9})
        memo.refresh(world_table.interned())
        assert len(memo) == entries_before  # no entry touches "lonely"
        hits_before = memo.hits
        replayed = condition_wsset(condition, tuples, world_table, memo=memo)
        assert memo.hits > hits_before
        assert signature(replayed) == signature(off)

    def test_reweighting_covered_variable_evicts_and_recomputes(self):
        world_table, condition, tuples = sibling_heavy_case()
        memo = ConditioningMemo()
        condition_wsset(condition, tuples, world_table, memo=memo)
        assert len(memo) > 0
        world_table.set_distribution("x0", {0: 0.3, 1: 0.7})
        memo.refresh(world_table.interned())
        # Every stored subproblem either covers x0 or was the root; all the
        # x0-dependent ones must be gone.
        on = condition_wsset(condition, tuples, world_table, memo=memo)
        off = condition_wsset(condition, tuples, world_table, MEMO_OFF)
        assert signature(on) == signature(off)

    def test_option_mismatch_never_crosses(self):
        world_table, condition, tuples = sibling_heavy_case()
        memo = ConditioningMemo()
        plain = condition_wsset(condition, tuples, world_table, memo=memo)
        pruned_off = condition_wsset(
            condition, tuples, world_table, memo=memo, prune_unrelated=False
        )
        off = condition_wsset(
            condition, tuples, world_table, MEMO_OFF, prune_unrelated=False
        )
        assert signature(pruned_off) == signature(off)
        assert pruned_off.confidence == plain.confidence


def db_condition(database, count=3):
    """A condition pinning the first ``count`` world-table variables."""
    world_table = database.world_table
    variables = list(world_table.variables)[:count]
    return WSSet(
        [{variable: world_table.domain(variable)[0]} for variable in variables]
    )


def table_rows(world_table):
    return {
        variable: world_table.distribution(variable)
        for variable in world_table.variables
    }


class TestSessionIntegration:
    def test_cross_call_hits_surface_in_engine_stats(self):
        rng = random.Random(424)
        database = random_tuple_independent_database(rng, num_tuples=7)
        with Session(database) as session:
            condition = db_condition(database)
            first_db, first_summary = session.conditioned(condition)
            second_db, second_summary = session.conditioned(condition)
            stats = session.statistics()
        assert stats.cond_memo_hits >= 1
        assert stats.cond_memo_misses >= 1
        assert stats.cond_memo_bytes_estimate > 0
        assert first_summary.confidence == second_summary.confidence
        assert table_rows(first_db.world_table) == table_rows(second_db.world_table)
        payload = stats.as_dict()
        for key in (
            "cond_memo_hits",
            "cond_memo_misses",
            "cond_memo_evictions",
            "cond_memo_bytes_estimate",
        ):
            assert key in payload

    def test_memo_off_config_disables_the_handle_memo(self):
        rng = random.Random(425)
        database = random_tuple_independent_database(rng)
        with Session(database, MEMO_OFF) as session:
            condition = db_condition(database)
            session.conditioned(condition)
            session.conditioned(condition)
            stats = session.statistics()
        assert stats.cond_memo_hits == 0
        assert stats.cond_memo_misses == 0
        assert stats.cond_memo_bytes_estimate == 0

    def test_interleaved_assert_confidence_what_if_never_stale(self):
        # The stale-memo hazard regression: assert mutates the database (new
        # world table, renamed variables), set_distribution re-weights in
        # place — after each mutation the session's answers must match a
        # fresh, memo-free session built on the database *as it now is*.
        rng = random.Random(426)
        database = random_tuple_independent_database(rng, num_tuples=7)
        session = Session(database)
        condition = db_condition(database, count=2)

        def fresh_confidence(target):
            with Session(database, MEMO_OFF) as control:
                return control.confidence(target).value

        assert session.confidence("R").value == fresh_confidence("R")
        session.conditioned(condition)  # warm the memo
        session.assert_condition(condition)
        assert session.confidence("R").value == fresh_confidence("R")

        # Re-weight a surviving variable of the *posterior* table in place.
        world_table = database.world_table
        variable = next(iter(world_table.variables))
        domain = world_table.domain(variable)
        weights = [0.7] + [0.3 / (len(domain) - 1)] * (len(domain) - 1)
        world_table.set_distribution(
            variable, dict(zip(domain, weights)), normalize=True
        )
        assert session.confidence("R").value == fresh_confidence("R")

        # The asserted variables are gone from the posterior table; condition
        # on the table as it now stands.
        condition = db_condition(database, count=2)
        posterior_on, summary_on = session.conditioned(condition)
        posterior_off, summary_off = database.conditioned(condition, MEMO_OFF)
        assert summary_on.confidence == summary_off.confidence
        assert table_rows(posterior_on.world_table) == table_rows(
            posterior_off.world_table
        )

        ps = [0.2, 0.5, 0.8]
        with Session(database, MEMO_OFF) as control:
            assert session.what_if("R", variable, ps) == control.what_if(
                "R", variable, ps
            )
        session.close()
