"""Tests for the SQL front end: lexer, parser, planner and executor."""

from __future__ import annotations

import random
import time

import pytest

from repro.db.predicates import AttributeComparison, Constant, attr
from repro.errors import QueryError, SQLSyntaxError
from repro.sql import execute, parse, tokenize
from repro.sql.ast_nodes import (
    AssertStatement,
    Between,
    BooleanExpression,
    ColumnRef,
    Comparison,
    ConfCall,
    SelectStatement,
    Star,
)
from repro.sql.lexer import TokenType


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("select SSN from R")
        assert [t.type for t in tokens[:-1]] == [
            TokenType.KEYWORD,
            TokenType.IDENTIFIER,
            TokenType.KEYWORD,
            TokenType.IDENTIFIER,
        ]
        assert tokens[0].value == "SELECT"

    def test_strings_numbers_and_symbols(self):
        tokens = tokenize("where a >= 0.05 and b = 'x''y'")
        values = [t.value for t in tokens[:-1]]
        assert 0.05 in values
        assert "x'y" in values
        assert ">=" in values

    def test_negative_numbers_in_value_position(self):
        tokens = tokenize("where a = -3")
        assert -3 in [t.value for t in tokens]

    def test_not_equal_variants(self):
        assert "!=" in [t.value for t in tokenize("a != b")]
        assert "!=" in [t.value for t in tokenize("a <> b")]

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("select 'oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("select #")


class TestParser:
    def test_simple_select(self):
        statement = parse("select SSN, NAME from R").statement
        assert isinstance(statement, SelectStatement)
        assert len(statement.columns) == 2
        assert statement.tables[0].name == "R"

    def test_star(self):
        statement = parse("select * from R").statement
        assert isinstance(statement.columns, Star)

    def test_conf_call_with_and_without_arguments(self):
        statement = parse("select SSN, conf(SSN) from R where NAME = 'Bill'").statement
        conf_calls = statement.conf_columns()
        assert len(conf_calls) == 1
        assert conf_calls[0].arguments[0] == ColumnRef("SSN")
        bare = parse("select conf() P2 from B").statement
        assert isinstance(bare.columns[0].expression, ConfCall)
        assert bare.columns[0].alias == "P2"

    def test_boolean_query(self):
        statement = parse("select true from R where SSN = 7").statement
        assert statement.is_boolean

    def test_aliases_and_qualified_columns(self):
        statement = parse(
            "select c.custkey from customer c, orders o where c.custkey = o.custkey"
        ).statement
        assert statement.tables[0].binding == "c"
        assert isinstance(statement.where, Comparison)
        assert statement.where.left == ColumnRef("custkey", "c")

    def test_between_and_boolean_operators(self):
        statement = parse(
            "select true from lineitem where shipdate between '1994-01-01' and '1996-01-01' "
            "and discount between 0.05 and 0.08 and quantity < 24"
        ).statement
        condition = statement.where
        assert isinstance(condition, BooleanExpression)
        assert condition.operator == "and"
        assert any(isinstance(operand, Between) for operand in condition.operands)

    def test_or_not_and_parentheses(self):
        statement = parse(
            "select true from R where not (SSN = 1 or SSN = 4)"
        ).statement
        assert isinstance(statement.where, BooleanExpression)
        assert statement.where.operator == "not"

    def test_assert_statement(self):
        statement = parse("assert select true from R where SSN = 7").statement
        assert isinstance(statement, AssertStatement)

    def test_syntax_errors(self):
        for bad in (
            "select from R",
            "select * R",
            "select * from",
            "select * from R where",
            "select * from R where SSN",
            "select * from R where SSN = 1 trailing garbage ,",
        ):
            with pytest.raises(SQLSyntaxError):
                parse(bad)

    def test_table_alias_without_as_keyword(self):
        statement = parse("select * from R extra").statement
        assert statement.tables[0].binding == "extra"


class TestExecutor:
    def test_confidence_query_from_the_introduction(self, ssn_database):
        result = execute(
            ssn_database, "select SSN, conf(SSN) from R where NAME = 'Bill'"
        )
        assert result.kind == "confidence"
        rows = {row[0]: row[-1] for row in result.rows}
        assert rows[4] == pytest.approx(0.3)
        assert rows[7] == pytest.approx(0.7)
        assert result.columns[-1] == "conf"

    def test_plain_selection_returns_relation(self, ssn_database):
        result = execute(ssn_database, "select SSN from R where NAME = 'John'")
        assert result.kind == "relation"
        assert sorted(row[0] for row in result.rows) == [1, 7]
        assert result.as_dicts()[0].keys() == {"SSN"}

    def test_star_projection(self, ssn_database):
        result = execute(ssn_database, "select * from R")
        assert result.kind == "relation"
        assert len(result.rows) == 4

    def test_boolean_query_confidence(self, ssn_database):
        result = execute(ssn_database, "select true from R where SSN = 7")
        assert result.kind == "boolean"
        # P(John has 7 or Bill has 7) = 1 - P(j=1)P(b=4) = 1 - 0.06
        assert result.confidence == pytest.approx(0.94)

    def test_self_join_with_aliases(self, ssn_database):
        result = execute(
            ssn_database,
            "select true from R r1, R r2 "
            "where r1.SSN = r2.SSN and r1.NAME != r2.NAME",
        )
        assert result.confidence == pytest.approx(0.56)

    def test_assert_conditions_the_database(self, ssn_database):
        # assert[SSN -> NAME] expressed as "no two different names share an SSN"
        # via the complement query is awkward in SQL; assert the positive form
        # used in the introduction: Bill's SSN is 4 or John's SSN is 1.
        result = execute(
            ssn_database,
            "assert select true from R r1, R r2 "
            "where r1.NAME = 'John' and r2.NAME = 'Bill' and r1.SSN != r2.SSN",
        )
        assert result.kind == "assert"
        assert result.confidence == pytest.approx(0.44)
        posterior = execute(
            ssn_database, "select SSN, conf(SSN) from R where NAME = 'Bill'"
        )
        rows = {row[0]: row[-1] for row in posterior.rows}
        assert rows[4] == pytest.approx(0.3 / 0.44)

    def test_unknown_column_and_ambiguity_errors(self, ssn_database):
        with pytest.raises(QueryError):
            execute(ssn_database, "select AGE from R")
        with pytest.raises(QueryError):
            execute(ssn_database, "select SSN from R r1, R r2")

    def test_duplicate_binding_rejected(self, ssn_database):
        with pytest.raises(QueryError):
            execute(ssn_database, "select true from R r1, R r1")

    def test_where_false_and_true_literals(self, ssn_database):
        empty = execute(ssn_database, "select SSN from R where false")
        assert empty.rows == []
        everything = execute(ssn_database, "select SSN from R where true")
        assert len(everything.rows) == 4


def _row_set(relation):
    """Order-insensitive content of a planned relation, column order fixed."""
    order = sorted(
        range(len(relation.attributes)), key=lambda i: relation.attributes[i]
    )
    return {
        (row.descriptor, tuple(row.values[i] for i in order))
        for row in relation
    }


def _plan(database, sql):
    from repro.sql.planner import plan_select

    return plan_select(parse(sql).statement, database)


def _literal(database, bindings, predicate):
    """The paper's translation: σ_predicate over the product of the bindings.

    ``bindings`` lists ``(alias, relation name)`` in FROM order; each relation
    is prefixed with its alias, as the planner names columns.
    """
    from repro.db import algebra

    relations = [
        database.relation(name).prefixed(f"{alias}.") for alias, name in bindings
    ]
    joined = relations[0]
    for relation in relations[1:]:
        joined = algebra.product(joined, relation)
    return algebra.select(joined, predicate)


def _rows(relation):
    """Rows with descriptors, in order."""
    return [(row.descriptor, row.values) for row in relation]


class TestPlannerEquiJoin:
    """The planner's equi-join and equality-index paths vs the literal translation."""

    @staticmethod
    def _join_database(rows=300, keys=None):
        from repro.db.database import ProbabilisticDatabase

        rng = random.Random(17)
        database = ProbabilisticDatabase()
        r = database.create_relation("R", ("K", "V"))
        s = database.create_relation("S", ("K", "W"))
        for index in range(rows):
            database.world_table.add_boolean(f"a{index}", 0.5)
            database.world_table.add_boolean(f"b{index}", 0.5)
            key = index if keys is None else rng.randrange(keys)
            r.add({f"a{index}": True}, (key, index))
            s.add({f"b{index}": True}, (key, index + rows))
        return database

    def test_equijoin_plan_matches_cross_join_plan(self):
        database = self._join_database(rows=60, keys=12)
        bindings = [("r", "R"), ("s", "S")]
        join = attr("r.K") == attr("s.K")
        for sql, predicate in (
            ("select true from R r, S s where r.K = s.K", join),
            (
                "select true from R r, S s where r.K = s.K and r.V != s.W",
                join & (attr("r.V") != attr("s.W")),
            ),
            (
                "select true from R r, S s where r.K = s.K and (s.W > 70 or r.V < 5)",
                join & ((attr("s.W") > 70) | (attr("r.V") < 5)),
            ),
        ):
            planned = _plan(database, sql).relation
            literal = _literal(database, bindings, predicate)
            assert planned.attributes == literal.attributes
            assert _rows(planned) == _rows(literal)

    def test_three_way_join_and_unconnected_table(self):
        from repro.db.database import ProbabilisticDatabase

        database = ProbabilisticDatabase()
        r = database.create_relation("R", ("A",))
        s = database.create_relation("S", ("B",))
        t = database.create_relation("T", ("C",))
        for index in range(6):
            database.world_table.add_boolean(f"v{index}", 0.5)
            r.add({f"v{index}": True}, (index,))
            s.add({f"v{index}": True}, (index % 3,))
            t.add({f"v{index}": True}, (index % 2,))
        # R joins T by equality; S is only reachable via the cross product.
        sql = "select true from R r, S s, T t where r.A = t.C and s.B != 0"
        planned = _plan(database, sql).relation
        literal = _literal(
            database,
            [("r", "R"), ("s", "S"), ("t", "T")],
            (attr("r.A") == attr("t.C")) & (attr("s.B") != 0),
        )
        # The join order puts T before S: same rows, columns in another order.
        assert _row_set(planned) == _row_set(literal)

    def test_equality_with_constant_stays_a_selection(self, ssn_database):
        # "NAME = 'Bill'" is attribute-vs-constant: not a join conjunct.
        planned = _plan(ssn_database, "select SSN from R where NAME = 'Bill'")
        assert sorted(row.values[0] for row in planned.relation) == [4, 7]

    def test_self_join_confidence_unchanged_by_hash_path(self, ssn_database):
        sql = ("select true from R r1, R r2 "
               "where r1.SSN = r2.SSN and r1.NAME != r2.NAME")
        planned = _plan(ssn_database, sql).relation
        literal = _literal(
            ssn_database,
            [("r1", "R"), ("r2", "R")],
            (attr("r1.SSN") == attr("r2.SSN")) & (attr("r1.NAME") != attr("r2.NAME")),
        )
        assert _rows(planned) == _rows(literal)
        assert list(planned.descriptors()) == list(literal.descriptors())

    def test_hash_equijoin_is_faster_than_cross_join(self):
        # 400 x 400 rows with unique keys: the literal translation pays 160k
        # descriptor-consistency checks, the hash path ~800 probe steps.
        database = self._join_database(rows=400)
        sql = "select true from R r, S s where r.K = s.K"
        bindings, predicate = [("r", "R"), ("s", "S")], attr("r.K") == attr("s.K")

        def best_of(n, build):
            durations = []
            for _ in range(n):
                started = time.perf_counter()
                relation = build()
                durations.append(time.perf_counter() - started)
            return min(durations), relation

        fast_seconds, fast = best_of(3, lambda: _plan(database, sql).relation)
        slow_seconds, slow = best_of(3, lambda: _literal(database, bindings, predicate))
        assert _rows(fast) == _rows(slow)
        assert len(fast) == 400
        # Generous floor (the gap is ~10x locally) to stay robust on noisy CI.
        assert slow_seconds > 2.0 * fast_seconds, (
            f"hash equi-join not faster: {fast_seconds:.4f}s vs {slow_seconds:.4f}s"
        )


def _group_database():
    """``HARD(GROUP, ID)``: 3 groups of 10 rows; ``U``: the same plus a list value."""
    from repro.cluster.__main__ import build_cluster_database

    database = build_cluster_database("hardmix:groups=3,n=6,w=10,seed=1")
    unhashable = database.create_relation("U", ("GROUP", "ID"))
    for row in database.relation("HARD"):
        unhashable.add_tuple(row)
    unhashable.add_certain(([1], 99))
    return database


_GROUP = attr("HARD.GROUP")

#: (sql, FROM bindings, the predicate in algebra, served by the index)
EQUALITY_CASES = {
    "int": ("select true from HARD where GROUP = 1", [("HARD", "HARD")],
            _GROUP == 1, True),
    "constant-left": ("select true from HARD where 1 = GROUP", [("HARD", "HARD")],
                      AttributeComparison(Constant(1), "=", _GROUP), True),
    "float": ("select true from HARD where GROUP = 1.0", [("HARD", "HARD")],
              _GROUP == 1.0, True),
    "string": ("select true from HARD where GROUP = '1'", [("HARD", "HARD")],
               _GROUP == "1", True),
    "bool": ("select true from HARD where GROUP = true", [("HARD", "HARD")],
             _GROUP == True, True),  # noqa: E712 - builds a predicate
    "contradiction": ("select * from HARD where GROUP = 1 and GROUP = 2",
                      [("HARD", "HARD")], (_GROUP == 1) & (_GROUP == 2), True),
    "alias": ("select * from HARD h where h.GROUP = 2 and ID < 3", [("h", "HARD")],
              (attr("h.GROUP") == 2) & (attr("h.ID") < 3), True),
    "self-join": (
        "select true from HARD h1, HARD h2 where h1.GROUP = 0 and h1.ID = h2.ID",
        [("h1", "HARD"), ("h2", "HARD")],
        (attr("h1.GROUP") == 0) & (attr("h1.ID") == attr("h2.ID")),
        True,
    ),
    "unhashable-column": ("select true from U where GROUP = 1", [("U", "U")],
                          attr("U.GROUP") == 1, False),
}


@pytest.mark.parametrize("case", list(EQUALITY_CASES), ids=list(EQUALITY_CASES))
def test_equality_index_equals_the_literal_scan(case, monkeypatch):
    from repro.db.urelation import URelation

    sql, bindings, predicate, indexed = EQUALITY_CASES[case]
    database = _group_database()
    literal = _literal(database, bindings, predicate)
    served = []
    rows_where = URelation.rows_where

    def recording(self, attribute, value):
        found = rows_where(self, attribute, value)
        served.append(found is not None)
        return found

    monkeypatch.setattr(URelation, "rows_where", recording)
    planned = _plan(database, sql).relation
    assert planned.attributes == literal.attributes
    assert _rows(planned) == _rows(literal)
    assert list(planned.descriptors()) == list(literal.descriptors())
    # One index lookup per narrowed binding; the list column answers None.
    assert served == [indexed]
