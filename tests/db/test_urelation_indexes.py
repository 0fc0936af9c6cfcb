"""A U-relation's row indexes against a scan, across splices and appends.

``rows_mentioning`` (the variable index plus the chunk directory) and
``rows_where`` (the equality index) must answer what a pass over the rows
answers, in row order, after any sequence of appends and splices: runs longer
or shorter than the row they replace, empty runs, runs that change an indexed
column.  Both sides of every splice are checked, since the posterior shares
index lists with its prior and either may be appended to afterwards.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.descriptors import as_descriptor
from repro.db.urelation import CHUNK, URelation, UTuple

VARIABLES = [f"x{index}" for index in range(40)]
GROUPS = 8


def random_row(rng, group, ident):
    chosen = rng.sample(VARIABLES, rng.randint(1, 2))
    descriptor = as_descriptor({v: rng.randint(0, 1) for v in chosen})
    return UTuple(descriptor, (group, ident))


def check(relation, rng):
    """Every index answer equals the scan's, identities and order included."""
    rows = list(relation)
    # One variable at a time, so that only its rows' chunks are scanned.
    for chosen in [{v} for v in VARIABLES] + [set(rng.sample(VARIABLES, 3))]:
        expected = [
            (position, row)
            for position, row in enumerate(rows)
            if not chosen.isdisjoint(row.descriptor.variables)
        ]
        found = relation.rows_mentioning(chosen)
        assert [(p, id(r)) for p, r in found] == [(p, id(r)) for p, r in expected]
    for group in range(GROUPS + 1):
        found = relation.rows_where("G", group)
        assert [id(r) for r in found] == [id(r) for r in rows if r.values[0] == group]
    ident = rng.choice(rows).values[1] if rows else 0
    assert relation.rows_where("ID", ident) == [r for r in rows if r.values[1] == ident]


@pytest.mark.parametrize("seed", range(4))
def test_indexes_answer_what_a_scan_answers(seed):
    rng = random.Random(seed)
    relation = URelation("R", ("G", "ID"))
    for ident in range(5 * CHUNK + 7):
        relation.add_tuple(random_row(rng, rng.randrange(GROUPS), ident))
    check(relation, rng)  # builds the indexes
    ident = 10_000
    for _ in range(10):
        rows = list(relation)
        changes_column = rng.random() < 0.3
        replacements = {}
        for position in rng.sample(range(len(rows)), rng.randint(1, 40)):
            old = rows[position]
            group = rng.randrange(GROUPS) if changes_column else old.values[0]
            replacements[position] = [
                random_row(rng, group, old.values[1])
                for _ in range(rng.choice((0, 1, 1, 2, 3)))
            ]
        expected = [
            new
            for position, row in enumerate(rows)
            for new in replacements.get(position, (row,))
        ]
        posterior = relation.spliced(replacements)
        assert [id(r) for r in posterior] == [id(r) for r in expected]
        assert [id(r) for r in relation] == [id(r) for r in rows]
        check(posterior, rng)
        check(relation, rng)
        # An append on either side: the other side's answers do not move.
        for side in rng.sample((relation, posterior), 2):
            side.add_tuple(random_row(rng, rng.randrange(GROUPS), ident))
            ident += 1
            check(relation, rng)
            check(posterior, rng)
        relation = posterior


def test_an_unhashable_value_sends_its_column_back_to_the_scan():
    relation = URelation("R", ("G", "ID"))
    for ident in range(10):
        relation.add({f"x{ident}": 1}, (ident % 3, ident))
    assert relation.rows_where("G", 1) == [r for r in relation if r.values[0] == 1]
    relation.add({"y": 1}, ([1], 10))  # appended after the index was built
    assert relation.rows_where("G", 1) is None
    assert relation.rows_where("ID", 10) == [list(relation)[-1]]
    assert relation.rows_where("ID", [10]) is None  # an unhashable constant
    assert relation.rows_where("ID", float("nan")) is None


def test_readers_racing_to_build_the_index_all_get_the_scan_rows():
    # The server plans reads on several threads at once; the first ones race
    # to build a relation's equality index.
    from repro.cluster.__main__ import build_cluster_database
    from repro.sql import parse
    from repro.sql.planner import plan_select

    readers, groups = 6, 4
    statements = [
        parse(f"select * from HARD where GROUP = {g}").statement for g in range(groups)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            database = build_cluster_database(f"hardmix:groups={groups},n=12,s=4,w=40")
            rows = list(database.relation("HARD"))
            expected = [[id(r) for r in rows if r.values[0] == g] for g in range(groups)]
            barrier, failures = threading.Barrier(readers), []

            def read(offset):
                barrier.wait(timeout=10)
                for step in range(3 * groups):
                    g = (offset + step) % groups
                    planned = plan_select(statements[g], database).relation
                    if [id(r) for r in planned] != expected[g]:
                        failures.append((offset, g))

            threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert failures == []
    finally:
        sys.setswitchinterval(interval)
