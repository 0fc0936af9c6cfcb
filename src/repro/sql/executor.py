"""Execution of parsed SQL statements against a probabilistic database.

``SELECT`` statements return a :class:`QueryResult`:

* without ``conf()`` the result is the answer U-relation projected to the
  selected columns (rows still carry their ws-descriptors);
* with ``conf()`` the result closes the possible-worlds semantics: rows are
  grouped by the non-aggregate columns and each group carries the exact
  confidence of its ws-set (the paper's ``select SSN, conf(SSN) from R ...``);
* ``select true from ... where ...`` is a Boolean query; its result carries
  the single confidence value and the answer ws-set.

``ASSERT <boolean query>`` conditions the database in place on the worlds in
which the query is true (the ``assert[B]`` operation of Section 5) and returns
the conditioning summary wrapped in a :class:`QueryResult`.

All confidence computation runs through a :class:`~repro.db.session.Session`:
:func:`execute` opens a transient one per call unless the caller passes
``session=`` (or calls :meth:`Session.execute`), and :func:`execute_script`
runs a whole ``;``-separated script over one shared session, so repeated
``conf()`` queries and multi-statement scripts reuse the same interned
representation and memo cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.probability import ExactConfig
from repro.core.wsset import WSSet
from repro.db import algebra
from repro.db.urelation import URelation
from repro.errors import QueryError
from repro.sql.ast_nodes import AssertStatement, ParsedStatement, SelectStatement
from repro.sql.parser import parse
from repro.sql.planner import plan_select

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import ConditioningSummary, ProbabilisticDatabase
    from repro.db.session import Session


@dataclass
class QueryResult:
    """Result of executing one SQL statement."""

    kind: str  # "relation" | "confidence" | "boolean" | "assert"
    columns: tuple[str, ...] = ()
    rows: list[tuple] = field(default_factory=list)
    relation: URelation | None = None
    ws_set: WSSet | None = None
    confidence: float | None = None
    summary: "ConditioningSummary | None" = None

    def as_dicts(self) -> list[dict]:
        """Rows as ``column -> value`` dictionaries (confidence included if any)."""
        return [dict(zip(self.columns, row)) for row in self.rows]


def _session_for(
    database: "ProbabilisticDatabase",
    config: ExactConfig | None,
    session: "Session | None",
) -> "Session":
    if session is not None:
        if config is not None:
            raise QueryError(
                "pass either config or session=, not both "
                "(the session already carries its config)"
            )
        if session.database is not database:
            raise QueryError("the given session is bound to a different database")
        return session
    from repro.db.session import Session

    return Session(database, config)


def execute(
    database: "ProbabilisticDatabase",
    sql: "str | ParsedStatement",
    config: ExactConfig | None = None,
    *,
    session: "Session | None" = None,
) -> QueryResult:
    """Parse (if needed) and execute one SQL statement against ``database``.

    Without ``session`` a transient one is opened for this statement (the
    historical per-call behaviour); passing a session — or calling
    :meth:`~repro.db.session.Session.execute` — shares its engine and memo
    cache across statements.
    """
    session = _session_for(database, config, session)
    parsed = parse(sql) if isinstance(sql, str) else sql
    statement = parsed.statement
    if isinstance(statement, AssertStatement):
        return _execute_assert(database, statement, session)
    if isinstance(statement, SelectStatement):
        return _execute_select(database, statement, session)
    raise QueryError(f"unsupported statement {statement!r}")


def execute_script(
    database: "ProbabilisticDatabase",
    sql: str,
    config: ExactConfig | None = None,
    *,
    session: "Session | None" = None,
) -> list[QueryResult]:
    """Execute a ``;``-separated script, one shared session for all statements."""
    session = _session_for(database, config, session)
    return [
        execute(database, statement, session=session)
        for statement in split_statements(sql)
    ]


def split_statements(sql: str) -> list[str]:
    """Split a script on ``;`` (respecting string literals), dropping blanks."""
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    for character in sql:
        if character == "'":
            in_string = not in_string
        if character == ";" and not in_string:
            statements.append("".join(current))
            current = []
        else:
            current.append(character)
    statements.append("".join(current))
    return [statement for statement in statements if statement.strip()]


def _execute_select(
    database: "ProbabilisticDatabase",
    statement: SelectStatement,
    session: "Session",
) -> QueryResult:
    plan = plan_select(statement, database)
    answer_wsset = plan.relation.descriptors()

    if plan.is_boolean:
        value = session.confidence(answer_wsset).value
        return QueryResult(
            kind="boolean",
            columns=("conf",),
            rows=[(value,)],
            ws_set=answer_wsset,
            confidence=value,
            relation=plan.relation,
        )

    projected = (
        algebra.project(plan.relation, plan.output_columns)
        if plan.output_columns
        else plan.relation
    )

    if plan.conf_calls:
        confidence_rows = session.confidence_batch(projected)
        columns = plan.column_labels + ("conf",)
        rows = [row.values + (row.confidence,) for row in confidence_rows]
        return QueryResult(
            kind="confidence",
            columns=columns,
            rows=rows,
            relation=projected,
            ws_set=answer_wsset,
        )

    rows = [row.values for row in projected]
    return QueryResult(
        kind="relation",
        columns=plan.column_labels,
        rows=rows,
        relation=projected,
        ws_set=answer_wsset,
    )


def _execute_assert(
    database: "ProbabilisticDatabase",
    statement: AssertStatement,
    session: "Session",
) -> QueryResult:
    plan = plan_select(statement.query, database)
    condition = plan.relation.descriptors()
    # Route through the session so the handle is rebound to the posterior
    # table immediately (the invalidation choke-point) and the run's memo
    # counters reach the session statistics.
    summary = session.assert_condition(condition)
    return QueryResult(
        kind="assert",
        columns=("confidence",),
        rows=[(summary.confidence,)],
        ws_set=condition,
        confidence=summary.confidence,
        summary=summary,
    )
