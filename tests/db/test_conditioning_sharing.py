"""Structural sharing across ``conditioned()``: isolation, staleness, fallbacks.

The posterior of an assert shares every untouched row with the prior, its
relations carry the prior's variable and equality indexes over (sharing the
lists the assert did not touch), its world table shares the prior's domain
dicts, and its interned space extends the prior's.  None of that sharing may
leak: prior and
posterior stay independently mutable, an index built before a row was added
still finds it, and where ids cannot be kept (a grown packing shift, dead ids
outnumbering live ones, an in-place re-weighting) the full rebuild answers
bit for bit what a fresh session answers.
"""

from __future__ import annotations

import repro
from repro import WSSet, attr
from repro.cluster.__main__ import build_cluster_database
from repro.core.bruteforce import brute_force_conditional_probability
from repro.db.algebra import select

SPEC = "hardmix:groups=3,n=6,w=10,seed=1"


def group(database, index):
    return select(database.relation("HARD"), attr("GROUP") == index).descriptors()


def condition(database, index, bound=2):
    rows = select(database.relation("HARD"), attr("GROUP") == index)
    return select(rows, attr("ID") < bound).descriptors()


def answers(database):
    with repro.connect(database.copy()) as fresh:
        return [fresh.confidence(group(database, g)).value for g in range(3)]


def sql_answers(database):
    """Each group's SQL read, whose ws-set must be the algebra's, in order.

    The read goes through the relation's ``GROUP`` equality index, which a
    posterior shares with its prior.
    """
    with repro.connect(database) as session:
        results = [
            session.execute(f"select true from HARD where GROUP = {g}")
            for g in range(3)
        ]
    for g, result in enumerate(results):
        assert list(result.ws_set) == list(group(database, g))
    return [result.confidence for result in results]


def snapshot(database):
    return (
        database.world_table.rows(),
        [(row.descriptor, row.values) for row in database.relation("HARD")],
    )


def mutate(database):
    """Every kind of in-place change a database admits, on group 1."""
    table = database.world_table
    variable, other = sorted(group(database, 1).variables())[:2]
    table.add_alternative(variable, "extra", 0.0)
    table.set_distribution(other, {0: 0.9, 1: 0.1})
    table.add_variable("brand-new", {0: 0.5, 1: 0.5})
    database.relation("HARD").add({"brand-new": 1, variable: 0}, (1, 999))


def test_mutating_the_posterior_leaves_the_prior_alone_and_vice_versa():
    for mutate_posterior in (True, False):
        prior = build_cluster_database(SPEC)
        sql_answers(prior)  # builds the equality index the posterior shares
        posterior, _ = prior.conditioned(condition(prior, 0))
        changed, kept = (posterior, prior) if mutate_posterior else (prior, posterior)
        before, rows = answers(kept), snapshot(kept)
        changed_before = answers(changed)
        mutate(changed)
        assert snapshot(kept) == rows
        assert answers(kept) == before
        assert answers(changed) != changed_before
        assert sql_answers(kept) == before
        assert sql_answers(changed) == answers(changed)
        # The carried-over variable index is private to each side as well: a
        # second assert finds exactly the rows a freshly indexed copy finds.
        for database in (kept, changed):
            again, summary = database.conditioned(condition(database, 1, 4))
            reference, expected = database.copy().conditioned(
                condition(database, 1, 4)
            )
            assert snapshot(again) == snapshot(reference)
            assert summary.rewritten_tuples == expected.rewritten_tuples


def test_row_over_a_new_variable_added_after_the_index_exists_is_found():
    database = build_cluster_database(SPEC)
    with repro.connect(database) as session:
        session.assert_condition(condition(database, 0))  # builds the index
        database.world_table.add_variable("late", {"a": 0.25, "b": 0.75})
        database.relation("HARD").add({"late": "a"}, (1, 500))
        database.relation("HARD").add({"late": "b"}, (2, 501))
        prior = database.copy()
        summary = session.assert_condition(WSSet([{"late": "a"}]))
        assert summary.confidence == 0.25
        assert summary.rewritten_tuples == 1  # {"late": "b"} exists in no world
        assert "late" in summary.dropped_variables
        values = [row.values for row in database.relation("HARD")]
        assert (1, 500) in values and (2, 501) not in values
        for index in range(3):
            target = group(database, index)
            truth = brute_force_conditional_probability(
                group(prior, index), WSSet([{"late": "a"}]), prior.world_table
            )
            assert abs(session.confidence(target).value - truth) <= 1e-9
        assert [
            session.confidence(group(database, g)).value for g in range(3)
        ] == answers(database)


def test_grown_shift_falls_back_to_a_full_rebuild_with_identical_answers():
    database = build_cluster_database(SPEC)
    with repro.connect(database) as session:
        for index in range(3):
            session.confidence(group(database, index))
        session.assert_condition(condition(database, 0))
        assert session.statistics().engine_extensions == 1
        shift = database.world_table.interned().shift
        # Five alternatives do not fit the binary packing: the version bump
        # rebuilds the space with a wider shift, and the engine with it.
        database.world_table.add_variable("wide", {v: 0.2 for v in range(5)})
        database.relation("HARD").add({"wide": 3}, (1, 600))
        session.assert_condition(condition(database, 1))
        stats = session.statistics()
        assert database.world_table.interned().shift > shift
        assert stats.engine_rebuilds == 1 and stats.engine_extensions == 2
        assert [
            session.confidence(group(database, g)).value for g in range(3)
        ] == answers(database)

    # The successor itself refuses a domain that does not fit its shift.
    table = repro.WorldTable()
    table.add_variable("x", {0: 0.5, 1: 0.5})
    narrow = table.interned()
    delta = repro.WorldTable()
    delta.add_variable("y", {v: 0.25 for v in range(4)})
    merged = table.merged_with(delta)
    assert not merged.interned().shares_ids_with(narrow)
    assert merged.interned().variable_ids == {"x": 0, "y": 1}


def test_dead_slot_compaction_rebuilds_once_with_identical_answers():
    database = build_cluster_database(SPEC)
    with repro.connect(database) as session:
        seen = []
        for step in range(9):
            single = select(
                select(database.relation("HARD"), attr("GROUP") == step % 3),
                attr("ID") == step // 3,
            ).descriptors()
            if single.is_empty:
                continue
            session.assert_condition(single)
            space = database.world_table.interned()
            assert len(space.variables) <= 2 * len(space.variable_ids)
            assert [
                session.confidence(group(database, g)).value for g in range(3)
            ] == answers(database)
            seen.append(session.statistics())
        # Orphaned ids piled up until they outnumbered the live ones; that
        # assert (and only that kind) cost a rebuild, the others extended.
        assert seen[-1].engine_rebuilds >= 1
        assert seen[-1].engine_extensions > seen[-1].engine_rebuilds
        assert seen[0].engine_rebuilds == 0 and seen[0].engine_extensions == 1
