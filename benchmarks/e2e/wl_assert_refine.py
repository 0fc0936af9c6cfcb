"""``assert_refine`` — conditioning (``ASSERT``) interleaved with reads."""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

import repro
from repro import attr
from repro.cluster.__main__ import build_cluster_database
from repro.db.algebra import select

from workload import PROGRAM_TRACE, Depth, Inputs, System, Workload, close_to

#: 64 independent Figure 11a groups in one relation ``HARD(GROUP, ID)``; the
#: stream asserts on 50 of them, so a read always finds untouched groups.
GROUPS = 64
WRITES = 50
SPEC = "hardmix:groups={groups},n=12,r=2,s=4,w=40,seed={seed}"
#: ``ID < 2``: the condition is a 2-descriptor ws-set; the asserted group's
#: 40 rows are rewritten into ~45, so the relation and with it the cost of an
#: assert (which rebuilds every row) stay level over a round.  With
#: ``ID < 3`` they become ~65 and the last assert of a round costs twice the
#: first; with ``ID < 10``, ~500, and asserts reach 270 ms.  A level assert
#: population is what keeps ``p95_ms`` from moving with the seed.
CONDITION_IDS = 2


@dataclass(frozen=True)
class Op:
    kind: str  # "assert" | "touched" | "untouched"
    group: int

    @property
    def sql(self) -> str:
        if self.kind == "assert":
            return (
                f"ASSERT select * from HARD where GROUP = {self.group} "
                f"and ID < {CONDITION_IDS}"
            )
        return f"select true from HARD where GROUP = {self.group}"


class _Local(System):
    def __init__(self, database, trace: bool) -> None:
        super().__init__()
        self.database = database
        self.session = repro.connect(database, trace=trace)

    def counters(self) -> dict[str, float]:
        stats = self.session.statistics()
        return {
            key: getattr(stats, key)
            for key in ("frames", "memo_hits", "engine_rebuilds",
                        "cond_memo_hits", "cond_memo_misses")
        } | {"rows": len(self.database.relation("HARD"))}

    def close(self) -> None:
        self.session.close()
        super().close()


def _layer(names: dict[str, tuple[str, str]]):
    return lambda op: names["assert" if op.kind == "assert" else "read"]


class AssertRefine(Workload):
    name = "assert_refine"
    block_ops = 8
    commits_expected = True
    depths = (
        Depth(lambda op: ("sql", "Session.execute"), None),
        Depth(_layer({"assert": ("db.database", "Session.assert_condition"),
                      "read": ("db.session", "Session.confidence")}), 0),
        Depth(_layer({"assert": ("core.conditioning", "condition_wsset"),
                      "read": ("core.engine", "EngineHandle.probability")}), 1),
    )

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        order = list(range(GROUPS))
        rng.shuffle(order)
        ops = []
        for step, group in enumerate(order[:WRITES]):
            ops.append(Op("assert", group))
            ops.append(Op("touched", group))
            # Untouched: groups no assert has reached yet.
            for other in rng.sample(order[step + 1:], 2):
                ops.append(Op("untouched", other))
        return Inputs(ops, {"spec": SPEC.format(groups=GROUPS, seed=seed)})

    def reference(self, inputs: Inputs) -> list:
        # No session, no memo, no SQL: the database API and relational algebra.
        database = build_cluster_database(inputs.data["spec"])
        answers = []
        for op in inputs.ops:
            ws_set = _condition(database, op)
            if op.kind == "assert":
                answers.append(database.assert_condition(ws_set).confidence)
            else:
                answers.append(database.confidence(ws_set))
        return answers

    def matches(self, answer, expected) -> bool:
        return close_to(answer, expected)

    def self_check(self, seed: int) -> list[str]:
        # P(group | condition) after the assert == P(group and condition) /
        # P(condition) by world enumeration on the prior.
        database = build_cluster_database(f"hardmix:groups=2,n=8,r=2,s=4,w=8,seed={seed}")
        prior = database.world_table
        problems = []
        event = select(database.relation("HARD"), attr("GROUP") == 0).descriptors()
        condition = _condition(database, Op("assert", 0))
        brute = repro.brute_force_probability
        joint = (
            brute(event, prior) + brute(condition, prior)
            - brute(event.union(condition), prior)
        )
        with repro.connect(database) as session:
            session.execute(Op("assert", 0).sql)
            posterior = session.execute(Op("touched", 0).sql).confidence
        truth = joint / brute(condition, prior)
        if abs(posterior - truth) > 1e-9:
            problems.append(f"assert_refine: posterior {posterior} != brute force {truth}")
        return problems

    def start(self, inputs: Inputs, depth: int) -> System:
        # Lazy imports of the conditioning path, on a throw-away database.
        with repro.connect(build_cluster_database("hardmix:groups=2,n=6,w=6")) as warm:
            warm.execute(Op("assert", 0).sql)
        system = _Local(
            build_cluster_database(inputs.data["spec"]), trace=depth == PROGRAM_TRACE
        )
        # The warm read pass: every group once.
        for group in range(GROUPS):
            system.session.execute(Op("touched", group).sql)
        return system

    def prepare(self, system, index, op, depth):
        from repro.sql.parser import parse
        from repro.sql.planner import plan_select

        started = time.perf_counter()
        statement = parse(op.sql).statement
        parsed = time.perf_counter()
        query = statement.query if op.kind == "assert" else statement
        ws_set = plan_select(query, system.database).relation.descriptors()
        system.add("sql.parse_s", parsed - started)
        system.add("sql.plan_s", time.perf_counter() - parsed)
        return ws_set

    def execute(self, system, caller, index, op, depth, prepared):
        session = system.session
        if depth <= 0:
            result = session.execute(op.sql)
            if op.kind == "assert":
                system.add("new_variables", len(result.summary.new_variables))
                system.add("rewritten_rows", result.summary.rewritten_tuples)
            return result.confidence
        if op.kind != "assert":
            if depth == 1:
                return session.confidence(prepared).value
            session.refresh()
            return session.handle.probability(prepared)
        if depth == 1:
            return session.assert_condition(prepared).confidence
        session.refresh()
        database = system.database
        tagged = [
            ((name, row_index), row.descriptor)
            for name in database.relation_names
            for row_index, row in enumerate(database.relation(name))
        ]
        return repro.condition_wsset(
            prepared, tagged, database.world_table, session.config,
            memo=session.handle.conditioning_memo(),
        ).confidence

    def finish(self, system, index, op, depth, prepared) -> None:
        if depth == 2 and op.kind == "assert":
            # The timed call only computed the posterior; apply it (a memo
            # replay) so that later operations see the same database state.
            system.session.assert_condition(prepared)

    def layer_metrics(self, trace) -> dict[str, float]:
        ops = trace.inputs.ops
        asserts = sum(op.kind == "assert" for op in ops)
        is_assert = lambda op: op.kind == "assert"  # noqa: E731
        is_read = lambda op: op.kind != "assert"  # noqa: E731
        count = trace.count
        total = lambda key: trace.per_round("sums", 0, key)  # noqa: E731
        lookups = count("cond_memo_hits") + count("cond_memo_misses")
        # Timed in ``prepare`` during the depth-1 passes; scaled by their
        # speed factor like the operation times it is subtracted from.
        parse_plan = statistics.median(
            (result.sums["sql.parse_s"] + result.sums["sql.plan_s"]) * result.speed
            for result in trace.passes[1]
        ) / len(ops) * 1e3
        return {
            **trace.engine_counts(),
            "core.conditioning.assert_ms": trace.mean_ms(2, is_assert),
            "core.conditioning.cond_memo_hit_rate":
                count("cond_memo_hits") / lookups if lookups else 0.0,
            "core.conditioning.new_variables_per_assert": total("new_variables") / asserts,
            "core.conditioning.rewritten_rows_per_assert": total("rewritten_rows") / asserts,
            "db.database.posterior_self_ms":
                trace.mean_ms(1, is_assert) - trace.mean_ms(2, is_assert),
            "db.database.rows_after": GROUPS * 40 + count("rows"),
            "db.session.self_ms": trace.mean_ms(1, is_read) - trace.mean_ms(2, is_read),
            "db.session.read_touched_ms": trace.mean_ms(0, lambda op: op.kind == "touched"),
            "db.session.read_untouched_ms":
                trace.mean_ms(0, lambda op: op.kind == "untouched"),
            "sql.parse_plan_ms": parse_plan,
            "sql.execute_self_ms": trace.mean_ms(0) - trace.mean_ms(1) - parse_plan,
        }


def _condition(database, op: Op):
    """The ws-set the op's SQL denotes, by relational algebra (no SQL)."""
    predicate = attr("GROUP") == op.group
    if op.kind == "assert":
        predicate = predicate & (attr("ID") < CONDITION_IDS)
    return select(database.relation("HARD"), predicate).descriptors()
