"""Property tests of the conditioning-subproblem memo.

The memo lives for one conditioning run.  The central guarantee: memoised
conditioning is **bit-identical** to the unmemoised recursion — same
confidence, same rewritten descriptors, same new variables with the same
float weights — across configurations, including runs whose sibling branches
share cached subtrees and their new variables (rule 3 folds the unmemoised
run's copies into the same variables).  On top of that: the memoised path
still agrees with brute force, a session sums the runs' hit counts into its
statistics, and an interleaved assert/confidence/what_if session never serves
stale posteriors.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.bruteforce import brute_force_probability
from repro.core.conditioning import condition_wsset
from repro.core.descriptors import WSDescriptor
from repro.core.probability import ExactConfig
from repro.core.wsset import WSSet
from repro.db.database import ProbabilisticDatabase
from repro.db.session import Session
from repro.db.world_table import WorldTable
from repro.errors import ZeroProbabilityConditionError
from repro.workloads.random_instances import (
    random_tuple_independent_database,
    random_world_table,
    random_wsset,
)

# The posterior-marginal oracles of the interned-conditioning suite.
from test_interned_conditioning import (
    brute_force_tuple_marginals,
    posterior_tuple_marginals,
)

MEMO_OFF = ExactConfig(condition_memoize=False)

#: Configurations spanning subsumption, heuristics, plain VE and unsimplified
#: input.  The conditioning recursion always runs in-process ("serial" in the
#: test ids).
CONFIGS = [
    ExactConfig(),
    ExactConfig(subsumption_every_step=True),
    ExactConfig(heuristic="minmax"),
    ExactConfig(heuristic="minlog"),
    ExactConfig.ve(),
    ExactConfig(simplify_subsumed=False),
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
        "serial"
        f"{'-subs' if c.subsumption_every_step else ''}"
        f"{'-' + c.heuristic if c.heuristic != ExactConfig().heuristic else ''}"
        f"{'' if c.use_independent_partitioning else '-ve'}"
        f"{'' if c.simplify_subsumed else '-unsimplified'}"
    ))
    @pytest.mark.parametrize("seed", range(8))
    def test_memoised_equals_unmemoised_across_configs(self, seed, config):
        world_table, condition, tuples = random_case(61000 + seed)
        off_config = dataclasses.replace(config, condition_memoize=False)
        try:
            off = condition_wsset(condition, tuples, world_table, off_config)
        except ZeroProbabilityConditionError:
            with pytest.raises(ZeroProbabilityConditionError):
                condition_wsset(condition, tuples, world_table, config)
            return
        first = condition_wsset(condition, tuples, world_table, config)
        second = condition_wsset(condition, tuples, world_table, config)
        assert signature(first) == signature(off)
        assert signature(second) == signature(off)
        # The memoised runs consulted their memo; the ablation never did.
        assert first.stats.memo_hits + first.stats.memo_misses >= 1
        assert off.stats.memo_hits == off.stats.memo_misses == 0

    def test_residual_order_is_part_of_the_memo_key(self):
        # Two ⊕-branches leave the same residual condition in different
        # orders here; the variable choice below follows the order, so a key
        # that sorted it returned one branch's subtree for the other (4 new
        # variables instead of the unmemoised run's 5).
        world_table, condition, tuples = random_case(
            90078, num_variables=6, condition_size=6, tuple_count=6
        )
        off = condition_wsset(
            condition, tuples, world_table, MEMO_OFF, prune_unrelated=False
        )
        on = condition_wsset(condition, tuples, world_table, prune_unrelated=False)
        assert len(off.delta_world_table.variables) == 5
        assert signature(on) == signature(off)

    @pytest.mark.parametrize("seed", range(6))
    def test_memoised_matches_brute_force_marginals(self, seed):
        world_table, condition, tuples = random_case(67000 + seed)
        try:
            interned = condition_wsset(condition, tuples, world_table)
        except ZeroProbabilityConditionError:
            pytest.skip("sampled an unsatisfiable condition")
        assert interned.confidence == pytest.approx(
            brute_force_probability(condition, world_table), abs=1e-12
        )
        actual = posterior_tuple_marginals(interned, tuples, world_table)
        assert actual == pytest.approx(
            brute_force_tuple_marginals(condition, tuples, world_table), abs=1e-9
        )

    def test_sibling_branches_hit_within_one_run(self):
        world_table, condition, tuples = sibling_heavy_case()
        on = condition_wsset(condition, tuples, world_table)
        off = condition_wsset(condition, tuples, world_table, MEMO_OFF)
        assert signature(on) == signature(off)
        assert on.stats.memo_hits >= 1  # identical sibling subproblems shared
        # Unpruned, the shared subtrees hold new variables.  Without rule 3
        # the unmemoised run keeps one copy per sibling, while a hit reuses
        # the first sibling's ids; the posteriors are the same.
        unmerged = dict(prune_unrelated=False, merge_equal_new_variables=False)
        unmerged_on = condition_wsset(condition, tuples, world_table, **unmerged)
        unmerged_off = condition_wsset(
            condition, tuples, world_table, MEMO_OFF, **unmerged
        )
        assert len(unmerged_on.delta_world_table) < len(
            unmerged_off.delta_world_table
        )
        shared = posterior_tuple_marginals(unmerged_on, tuples, world_table)
        assert shared == pytest.approx(
            posterior_tuple_marginals(unmerged_off, tuples, world_table), abs=1e-12
        )
        assert shared == pytest.approx(
            brute_force_tuple_marginals(condition, tuples, world_table), abs=1e-12
        )

    def test_deep_spine_replays_iteratively(self):
        # The 1200-variable single-branch spine of the interned suite behind
        # a 4-way fan-out variable: ``w`` is eliminated first and every
        # sibling branch after the first is a single hit sharing the cached
        # 1200-deep op spine, which externalisation walks without recursion.
        count = 1200
        world_table = WorldTable()
        world_table.add_variable("w", {j: 0.25 for j in range(4)})
        spine = {}
        for index in range(count):
            world_table.add_variable(f"x{index}", {0: 0.9999, 1: 0.0001})
            spine[f"x{index}"] = 0
        condition = WSSet([{"w": j, **spine} for j in range(4)])
        tuples = [("t", WSDescriptor(spine))]
        result = condition_wsset(condition, tuples, world_table, prune_unrelated=False)
        assert result.stats.eliminated_variables[0] == "w"
        assert result.stats.memo_hits >= 3
        assert result.confidence == pytest.approx(0.9999**count)
        assert result.rewritten["t"] == [WSDescriptor({"w'": j}) for j in range(4)]

    def test_alien_tuple_variables_round_trip_through_cache(self):
        # ``b`` is in the world table but not in the condition, ``ghost`` in
        # neither: without pruning the tuple rides through every sibling
        # branch of ``w``, shared ones included, and keeps both.
        world_table, condition, _ = sibling_heavy_case()
        world_table.add_variable("b", {4: 0.3, 7: 0.7})
        tuples = [("t", WSDescriptor({"b": 4, "ghost": 9}))]
        result = condition_wsset(condition, tuples, world_table, prune_unrelated=False)
        off = condition_wsset(
            condition, tuples, world_table, MEMO_OFF, prune_unrelated=False
        )
        assert signature(result) == signature(off)
        assert result.rewritten["t"]
        for descriptor in result.rewritten["t"]:
            assert descriptor.get("ghost") == 9
            assert descriptor.get("b") == 4
        assert result.stats.memo_hits >= 1


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
    def test_per_run_hits_surface_in_engine_stats(self):
        world_table, condition, tuples = sibling_heavy_case()
        database = ProbabilisticDatabase(world_table)
        relation = database.create_relation("R", ("ID",))
        for tag, descriptor in tuples:
            relation.add(descriptor, (tag,))
        with Session(database) as session:
            first_db, first = session.conditioned(condition)
            second_db, second = session.conditioned(condition)
            stats = session.statistics()
        runs = (first.result.stats, second.result.stats)
        assert first.result.stats.memo_hits >= 1
        assert stats.cond_memo_hits == sum(run.memo_hits for run in runs)
        assert stats.cond_memo_misses == sum(run.memo_misses for run in runs)
        assert first.confidence == second.confidence
        assert table_rows(first_db.world_table) == table_rows(second_db.world_table)
        payload = stats.as_dict()
        assert {"cond_memo_hits", "cond_memo_misses"} <= payload.keys()
        assert "cond_memo_evictions" not in payload
        assert "cond_memo_bytes_estimate" not in payload

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
        session.conditioned(condition)  # a what-if assert first
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


class TestOneMemoScope:
    """The memo belongs to one run: nothing is configured or kept elsewhere."""

    def test_condition_memo_limit_option_is_gone(self):
        with pytest.raises(TypeError):
            ExactConfig(condition_memo_limit=8)

    def test_literal_independence_rule_option_is_gone(self):
        world_table, condition, tuples = sibling_heavy_case()
        with pytest.raises(TypeError):
            condition_wsset(
                condition, tuples, world_table, literal_independence_rule=True
            )

    def test_each_run_starts_with_an_empty_memo(self):
        world_table, condition, tuples = sibling_heavy_case()
        first = condition_wsset(condition, tuples, world_table)
        second = condition_wsset(condition, tuples, world_table)
        assert first.stats.memo_hits >= 1
        assert (second.stats.memo_hits, second.stats.memo_misses) == (
            first.stats.memo_hits,
            first.stats.memo_misses,
        )

    def test_handle_conditioning_memo_is_none_and_passes_through(self):
        world_table, condition, tuples = sibling_heavy_case()
        database = ProbabilisticDatabase(world_table)
        with Session(database) as session:
            memo = session.handle.conditioning_memo()
        assert memo is None
        passed = condition_wsset(condition, tuples, world_table, memo=memo)
        plain = condition_wsset(condition, tuples, world_table)
        assert signature(passed) == signature(plain)
        assert passed.stats.memo_hits == plain.stats.memo_hits
