"""Recursive-descent parser for the SQL subset.

Grammar (informally)::

    statement   := select | "ASSERT" select
    select      := "SELECT" select_list "FROM" table_list [ "WHERE" condition ]
    select_list := "*" | item ("," item)*
    item        := conf | operand [ ["AS"] alias ]
    conf        := "CONF" "(" [ column ("," column)* ] ")" [ ["AS"] alias ]
    table_list  := table ("," table)*
    table       := name [ ["AS"] alias ]
    condition   := or_expr
    or_expr     := and_expr ("OR" and_expr)*
    and_expr    := not_expr ("AND" not_expr)*
    not_expr    := "NOT" not_expr | primary
    primary     := "(" condition ")" | operand comparison
    comparison  := op operand | "BETWEEN" operand "AND" operand
    operand     := column | literal
    column      := name ["." name]
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.sql.ast_nodes import (
    AssertStatement,
    Between,
    BooleanExpression,
    ColumnRef,
    Comparison,
    ConfCall,
    Literal,
    ParsedStatement,
    SelectColumn,
    SelectStatement,
    Star,
    TableRef,
)
from repro.sql.lexer import Token, TokenType, tokenize


def parse(text: str) -> ParsedStatement:
    """Parse one SQL statement (SELECT or ASSERT)."""
    parser = _Parser(tokenize(text))
    statement = parser.parse_statement()
    parser.expect_end()
    return ParsedStatement(statement=statement, text=text)


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # -- token utilities -------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def advance(self) -> Token:
        token = self.current
        self._position += 1
        return token

    def accept_keyword(self, keyword: str) -> bool:
        if self.current.is_keyword(keyword):
            self.advance()
            return True
        return False

    def accept_symbol(self, symbol: str) -> bool:
        if self.current.is_symbol(symbol):
            self.advance()
            return True
        return False

    def expect_keyword(self, keyword: str) -> None:
        if not self.accept_keyword(keyword):
            raise SQLSyntaxError(
                f"expected {keyword}, found {self.current.value!r}",
                position=self.current.position,
            )

    def expect_symbol(self, symbol: str) -> None:
        if not self.accept_symbol(symbol):
            raise SQLSyntaxError(
                f"expected {symbol!r}, found {self.current.value!r}",
                position=self.current.position,
            )

    def expect_identifier(self) -> str:
        token = self.current
        if token.type is not TokenType.IDENTIFIER:
            raise SQLSyntaxError(
                f"expected an identifier, found {token.value!r}", position=token.position
            )
        self.advance()
        return str(token.value)

    def expect_end(self) -> None:
        if self.current.type is not TokenType.END:
            raise SQLSyntaxError(
                f"unexpected trailing input {self.current.value!r}",
                position=self.current.position,
            )

    # -- grammar ----------------------------------------------------------
    def parse_statement(self):
        if self.accept_keyword("ASSERT"):
            return AssertStatement(self.parse_select())
        return self.parse_select()

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        columns = self.parse_select_list()
        self.expect_keyword("FROM")
        tables = self.parse_table_list()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_condition()
        return SelectStatement(columns=columns, tables=tables, where=where)

    def parse_select_list(self):
        if self.accept_symbol("*"):
            return Star()
        columns = [self.parse_select_item()]
        while self.accept_symbol(","):
            columns.append(self.parse_select_item())
        return tuple(columns)

    def parse_select_item(self) -> SelectColumn:
        if self.current.is_keyword("CONF"):
            self.advance()
            self.expect_symbol("(")
            arguments: list[ColumnRef] = []
            if not self.current.is_symbol(")"):
                arguments.append(self._expect_column())
                while self.accept_symbol(","):
                    arguments.append(self._expect_column())
            self.expect_symbol(")")
            alias = self._parse_alias()
            return SelectColumn(ConfCall(tuple(arguments), alias=alias), alias=alias)
        expression = self.parse_operand()
        alias = self._parse_alias()
        return SelectColumn(expression, alias=alias)

    def _parse_alias(self) -> str | None:
        if self.accept_keyword("AS"):
            return self.expect_identifier()
        if self.current.type is TokenType.IDENTIFIER:
            return self.expect_identifier()
        return None

    def parse_table_list(self) -> tuple[TableRef, ...]:
        tables = [self.parse_table()]
        while self.accept_symbol(","):
            tables.append(self.parse_table())
        return tuple(tables)

    def parse_table(self) -> TableRef:
        name = self.expect_identifier()
        alias = self._parse_alias()
        return TableRef(name=name, alias=alias)

    # -- conditions --------------------------------------------------------
    def parse_condition(self):
        return self.parse_or()

    def parse_or(self):
        operands = [self.parse_and()]
        while self.accept_keyword("OR"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return BooleanExpression("or", tuple(operands))

    def parse_and(self):
        operands = [self.parse_not()]
        while self.accept_keyword("AND"):
            operands.append(self.parse_not())
        if len(operands) == 1:
            return operands[0]
        return BooleanExpression("and", tuple(operands))

    def parse_not(self):
        if self.accept_keyword("NOT"):
            return BooleanExpression("not", (self.parse_not(),))
        return self.parse_primary()

    def parse_primary(self):
        if self.accept_symbol("("):
            condition = self.parse_condition()
            self.expect_symbol(")")
            return condition
        left = self.parse_operand()
        if self.accept_keyword("BETWEEN"):
            low = self.parse_operand()
            self.expect_keyword("AND")
            high = self.parse_operand()
            return Between(left, low, high)
        for symbol in ("<=", ">=", "!=", "=", "<", ">"):
            if self.accept_symbol(symbol):
                return Comparison(left, symbol, self.parse_operand())
        if isinstance(left, Literal) and isinstance(left.value, bool):
            # Bare boolean literal condition, e.g. ``where true``.
            return left
        raise SQLSyntaxError(
            f"expected a comparison operator, found {self.current.value!r}",
            position=self.current.position,
        )

    # -- operands ------------------------------------------------------------
    def parse_operand(self):
        token = self.current
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.is_keyword("TRUE"):
            self.advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Literal(False)
        if token.type is TokenType.IDENTIFIER:
            return self._expect_column()
        raise SQLSyntaxError(
            f"expected a column or literal, found {token.value!r}", position=token.position
        )

    def _expect_column(self) -> ColumnRef:
        first = self.expect_identifier()
        if self.accept_symbol("."):
            second = self.expect_identifier()
            return ColumnRef(name=second, qualifier=first)
        return ColumnRef(name=first)
