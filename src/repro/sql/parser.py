"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    stmt      := select (UNION ALL select)* [';']
    select    := SELECT [DISTINCT] items FROM from_items
                 {[LEFT|RIGHT|FULL [OUTER]|SEMI|ANTI|INNER] JOIN
                  table_ref ON expr}
                 [WHERE expr] [GROUP BY exprs] [HAVING expr]
                 [ORDER BY order_items] [LIMIT n [OFFSET k]]
    from_item := ident [alias] | ident '(' args ')' [alias]
                 | '(' stmt ')' alias
    expr      := or-expression with NOT/comparison/BETWEEN/IN/LIKE,
                 arithmetic, CASE, function calls, date literals,
                 [NOT] EXISTS '(' stmt ')', [NOT] IN '(' stmt ')',
                 scalar subqueries '(' stmt ')'
"""

from __future__ import annotations

from ..errors import SqlError
from . import ast
from .lexer import Token, number_value, tokenize


def parse(text: str) -> ast.SelectStmt:
    """Parse one SELECT statement (with optional UNION ALL chain)."""
    tokens = tokenize(text)
    parser = _Parser(tokens)
    stmt = parser.parse_statement()
    stmt.literals = ast.Literals(
        tuple(number_value(token.value) if token.kind == "number"
              else token.value
              for token in tokens if token.slot is not None),
        tuple(parser.date_slots), tuple(parser.pinned_slots))
    return stmt


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        # ``peek(1)`` at the end of input reads the EOF token again
        self.tokens = [*tokens, tokens[-1]]
        self.pos = 0
        #: see :class:`ast.Literals`
        self.date_slots: list[int] = []
        self.pinned_slots: list[int] = []

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept_keyword(self, *names: str) -> Token | None:
        if self.peek().is_keyword(*names):
            return self.advance()
        return None

    def accept_symbol(self, *symbols: str) -> Token | None:
        if self.peek().is_symbol(*symbols):
            return self.advance()
        return None

    def expect_keyword(self, name: str) -> Token:
        token = self.peek()
        if not token.is_keyword(name):
            raise SqlError(f"expected {name.upper()}, got {token.value!r}",
                           token.line, token.column)
        return self.advance()

    def expect_symbol(self, symbol: str) -> Token:
        token = self.peek()
        if not token.is_symbol(symbol):
            raise SqlError(f"expected {symbol!r}, got {token.value!r}",
                           token.line, token.column)
        return self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "ident":
            raise SqlError(f"expected identifier, got {token.value!r}",
                           token.line, token.column)
        return self.advance().value

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.SelectStmt:
        stmt = self.parse_select()
        while self.accept_keyword("union"):
            self.expect_keyword("all")
            stmt.union_all.append(self.parse_select())
        self.accept_symbol(";")
        token = self.peek()
        if token.kind != "eof":
            raise SqlError(f"unexpected trailing input {token.value!r}",
                           token.line, token.column)
        return stmt

    def parse_select(self) -> ast.SelectStmt:
        self.expect_keyword("select")
        stmt = ast.SelectStmt()
        stmt.distinct = self.accept_keyword("distinct") is not None
        stmt.items = self._select_items()
        self.expect_keyword("from")
        stmt.from_tables.append(self._table_ref())
        while True:
            if self.accept_symbol(","):
                stmt.from_tables.append(self._table_ref())
                continue
            join_kind = self._join_kind()
            if join_kind is None:
                break
            table = self._table_ref()
            self.expect_keyword("on")
            condition = self._expr()
            stmt.joins.append(ast.JoinClause(join_kind, table, condition))
        if self.accept_keyword("where"):
            stmt.where = self._expr()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            stmt.group_by.append(self._expr())
            while self.accept_symbol(","):
                stmt.group_by.append(self._expr())
        if self.accept_keyword("having"):
            stmt.having = self._expr()
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            stmt.order_by.append(self._order_item())
            while self.accept_symbol(","):
                stmt.order_by.append(self._order_item())
        if self.accept_keyword("limit"):
            stmt.limit = self._int_literal()
            if self.accept_keyword("offset"):
                stmt.offset = self._int_literal()
        return stmt

    def _select_items(self) -> list[ast.SelectItem]:
        items = [self._select_item()]
        while self.accept_symbol(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.SelectItem:
        if self.peek().is_symbol("*"):
            self.advance()
            return ast.SelectItem(expr=None)
        expr = self._expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def _join_kind(self) -> str | None:
        token = self.peek()
        if token.is_keyword("join"):
            self.advance()
            return "inner"
        if token.is_keyword("inner", "left", "right", "full", "semi",
                            "anti"):
            kind = self.advance().value
            if kind in ("left", "right", "full"):
                self.accept_keyword("outer")
            self.expect_keyword("join")
            return kind
        return None

    def _subquery_body(self) -> ast.SelectStmt:
        """A SELECT (with optional UNION ALL chain) inside parens; the
        opening paren has been consumed, the closing one is expected."""
        subquery = self.parse_select()
        while self.accept_keyword("union"):
            self.expect_keyword("all")
            subquery.union_all.append(self.parse_select())
        self.expect_symbol(")")
        return subquery

    def _table_ref(self) -> ast.TableRef:
        if self.accept_symbol("("):
            subquery = self._subquery_body()
            alias = self._optional_alias()
            if alias is None:
                token = self.peek()
                raise SqlError("derived table requires an alias",
                               token.line, token.column)
            return ast.TableRef(subquery=subquery, alias=alias)
        name = self.expect_ident()
        if self.peek().is_symbol("("):
            self.advance()
            args: list[ast.SqlExpr] = []
            if not self.peek().is_symbol(")"):
                args.append(self._expr())
                while self.accept_symbol(","):
                    args.append(self._expr())
            self.expect_symbol(")")
            return ast.TableRef(function=name, function_args=args,
                                alias=self._optional_alias())
        return ast.TableRef(name=name, alias=self._optional_alias())

    def _optional_alias(self) -> str | None:
        if self.accept_keyword("as"):
            return self.expect_ident()
        if self.peek().kind == "ident":
            return self.advance().value
        return None

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return ast.OrderItem(expr, ascending)

    def _int_literal(self) -> int:
        token = self.peek()
        if token.kind != "number" or not token.value.isdecimal():
            raise SqlError(f"expected integer, got {token.value!r}",
                           token.line, token.column)
        self.advance()
        self.pinned_slots.append(token.slot)
        return int(token.value)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _expr(self) -> ast.SqlExpr:
        return self._or_expr()

    def _or_expr(self) -> ast.SqlExpr:
        left = self._and_expr()
        while self.accept_keyword("or"):
            left = ast.Binary("or", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.SqlExpr:
        left = self._not_expr()
        while self.accept_keyword("and"):
            left = ast.Binary("and", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.SqlExpr:
        if self.peek().is_keyword("not") \
                and self.peek(1).is_keyword("exists"):
            self.advance()
            exists = self._exists_expr()
            exists.negated = True
            return exists
        if self.accept_keyword("not"):
            return ast.Unary("not", self._not_expr())
        return self._comparison()

    def _exists_expr(self) -> ast.ExistsExpr:
        self.expect_keyword("exists")
        self.expect_symbol("(")
        token = self.peek()
        if not token.is_keyword("select"):
            raise SqlError("EXISTS requires a subquery", token.line,
                           token.column)
        return ast.ExistsExpr(self._subquery_body())

    def _comparison(self) -> ast.SqlExpr:
        left = self._additive()
        token = self.peek()
        if token.is_symbol("=", "<>", "<", "<=", ">", ">="):
            op = self.advance().value
            return ast.Binary(op, left, self._additive())
        negated = False
        if token.is_keyword("not"):
            follow = self.peek(1)
            if follow.is_keyword("between", "in", "like"):
                self.advance()
                negated = True
                token = self.peek()
        if token.is_keyword("between"):
            self.advance()
            low = self._additive()
            self.expect_keyword("and")
            high = self._additive()
            return ast.BetweenExpr(left, low, high, negated)
        if token.is_keyword("in"):
            self.advance()
            self.expect_symbol("(")
            if self.peek().is_keyword("select"):
                subquery = self._subquery_body()
                return ast.InSubquery(left, subquery, negated)
            values: list[ast.SqlExpr] = []
            if not self.peek().is_symbol(")"):
                values.append(self._additive())
                while self.accept_symbol(","):
                    values.append(self._additive())
            self.expect_symbol(")")
            return ast.InExpr(left, values, negated)
        if token.is_keyword("like"):
            self.advance()
            pattern = self.peek()
            if pattern.kind != "string":
                raise SqlError("LIKE requires a string literal pattern",
                               pattern.line, pattern.column)
            self.advance()
            return ast.LikeExpr(left, pattern.value, negated, pattern.slot)
        return left

    def _additive(self) -> ast.SqlExpr:
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.is_symbol("+", "-"):
                op = self.advance().value
                left = ast.Binary(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.SqlExpr:
        left = self._unary()
        while True:
            token = self.peek()
            if token.is_symbol("*", "/", "%"):
                op = self.advance().value
                left = ast.Binary(op, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.SqlExpr:
        if self.accept_symbol("-"):
            return ast.Unary("-", self._unary())
        if self.accept_symbol("+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> ast.SqlExpr:
        token = self.peek()
        if token.is_symbol("(") and self.peek(1).is_keyword("select"):
            self.advance()
            return ast.ScalarSubquery(self._subquery_body())
        if token.is_symbol("("):
            self.advance()
            expr = self._expr()
            self.expect_symbol(")")
            return expr
        if token.kind == "number":
            self.advance()
            return ast.NumberLit(number_value(token.value), token.slot)
        if token.kind == "string":
            self.advance()
            return ast.StringLit(token.value, token.slot)
        if token.is_keyword("date"):
            self.advance()
            literal = self.peek()
            if literal.kind != "string":
                raise SqlError("DATE requires a string literal",
                               literal.line, literal.column)
            self.advance()
            self.date_slots.append(literal.slot)
            return ast.DateLit(literal.value, literal.slot)
        if token.is_keyword("true"):
            self.advance()
            return ast.BoolLit(True)
        if token.is_keyword("false"):
            self.advance()
            return ast.BoolLit(False)
        if token.is_keyword("exists"):
            return self._exists_expr()
        if token.is_keyword("case"):
            return self._case_expr()
        if token.kind == "ident":
            return self._identifier_or_call()
        raise SqlError(f"unexpected token {token.value!r}", token.line,
                       token.column)

    def _case_expr(self) -> ast.SqlExpr:
        self.expect_keyword("case")
        whens: list[tuple[ast.SqlExpr, ast.SqlExpr]] = []
        while self.accept_keyword("when"):
            condition = self._expr()
            self.expect_keyword("then")
            value = self._expr()
            whens.append((condition, value))
        otherwise = None
        if self.accept_keyword("else"):
            otherwise = self._expr()
        self.expect_keyword("end")
        if not whens:
            token = self.peek()
            raise SqlError("CASE requires at least one WHEN", token.line,
                           token.column)
        return ast.CaseExpr(whens, otherwise)

    def _identifier_or_call(self) -> ast.SqlExpr:
        name = self.expect_ident()
        if self.peek().is_symbol("("):
            self.advance()
            if self.accept_symbol("*"):
                self.expect_symbol(")")
                return ast.FuncCall(name.lower(), [], is_star=True)
            distinct = self.accept_keyword("distinct") is not None
            args: list[ast.SqlExpr] = []
            if not self.peek().is_symbol(")"):
                args.append(self._expr())
                while self.accept_symbol(","):
                    args.append(self._expr())
            self.expect_symbol(")")
            return ast.FuncCall(name.lower(), args, distinct=distinct)
        if self.accept_symbol("."):
            column = self.expect_ident()
            return ast.Identifier(column, qualifier=name)
        return ast.Identifier(name)
