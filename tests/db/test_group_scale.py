"""An assert and a read cost their group, not the database.

``HARD`` holds independent groups of 40 rows.  The SQL read ``GROUP = g``
and the ``ASSERT … GROUP = g and ID < 2`` must hand the selection only the
group's rows — the planner narrows the binding through the relation's
equality index — however many groups the relation holds, and a read at
1024 groups must cost about what it costs at 64.
"""

from __future__ import annotations

import time
from contextlib import ExitStack

import pytest

import repro
from repro import attr
from repro.cluster.__main__ import build_cluster_database
from repro.db import algebra

SPEC = "hardmix:groups={groups},n=12,r=2,s=4,w=40,seed=1"


@pytest.fixture(scope="module")
def large():
    """1024 groups, 40,960 rows."""
    return build_cluster_database(SPEC.format(groups=1024))


def test_selection_receives_only_the_group(large, monkeypatch):
    database = large.copy()
    relation = database.relation("HARD")
    group = algebra.select(relation, attr("GROUP") == 700)
    expected = list(group.descriptors())
    condition = list(algebra.select(group, attr("ID") < 2).descriptors())
    sizes = []
    select = algebra.select

    def recording(relation, predicate, name=None):
        sizes.append(len(relation))
        return select(relation, predicate, name)

    monkeypatch.setattr(algebra, "select", recording)
    with repro.connect(database) as session:
        read = session.execute("select true from HARD where GROUP = 700")
        assert sizes == [40]
        assert list(read.ws_set) == expected
        sizes.clear()
        asserted = session.execute(
            "ASSERT select * from HARD where GROUP = 700 and ID < 2"
        )
        assert sizes == [40]
        assert list(asserted.ws_set) == condition
        # The posterior carries the index over: other groups stay at 40 rows.
        sizes.clear()
        session.execute("select true from HARD where GROUP = 3")
        assert sizes == [40]


def _best_read_seconds(databases, group=3, rounds=15, reads=20):
    """The best per-read time of each database, over interleaved rounds.

    The rounds alternate between the databases, so a burst of load from
    elsewhere on the host slows the rounds of each alike rather than every
    round of one.
    """
    sql = f"select true from HARD where GROUP = {group}"
    with ExitStack() as stack:
        sessions = [stack.enter_context(repro.connect(db)) for db in databases]
        for session in sessions:
            session.execute(sql)  # builds the index, warms the engine memo
        best = [float("inf")] * len(sessions)
        for _ in range(rounds):
            for index, session in enumerate(sessions):
                started = time.perf_counter()
                for _ in range(reads):
                    session.execute(sql)
                best[index] = min(best[index], time.perf_counter() - started)
    return [seconds / reads for seconds in best]


def test_read_cost_does_not_grow_with_the_database(large):
    small, big = _best_read_seconds(
        [build_cluster_database(SPEC.format(groups=64)), large]
    )
    # A scan of every row costs ~8x here; the index path ~1.2x.  Generous
    # floor for noisy hosts.
    assert big <= 2.0 * small, f"read at 1024 groups {big:.6f}s vs 64 groups {small:.6f}s"
