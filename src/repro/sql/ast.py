"""Abstract syntax tree for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field


def _slot() -> int | None:
    """A literal's ordinal among the number and string tokens of the
    text (``None`` when the binder made the node up).  The binder hands
    it on to the plan so that a statement template knows where each
    literal of the text went; it is no part of what the node *means* —
    two literals with one value compare and print alike."""
    return field(default=None, repr=False, compare=False)


# ----------------------------------------------------------------------
# scalar expressions
# ----------------------------------------------------------------------
class SqlExpr:
    """Base class for parsed scalar expressions."""


@dataclass
class Identifier(SqlExpr):
    name: str
    qualifier: str | None = None

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier \
            else self.name


@dataclass
class NumberLit(SqlExpr):
    #: an int, or a float when the text had a fraction or an exponent
    value: int | float
    slot: int | None = _slot()


@dataclass
class StringLit(SqlExpr):
    value: str
    slot: int | None = _slot()


@dataclass
class DateLit(SqlExpr):
    iso: str
    slot: int | None = _slot()


@dataclass
class BoolLit(SqlExpr):
    value: bool


@dataclass
class Unary(SqlExpr):
    op: str           # "-" | "not"
    operand: SqlExpr


@dataclass
class Binary(SqlExpr):
    op: str           # + - * / % = <> < <= > >= and or
    left: SqlExpr
    right: SqlExpr


@dataclass
class BetweenExpr(SqlExpr):
    operand: SqlExpr
    low: SqlExpr
    high: SqlExpr
    negated: bool = False


@dataclass
class InExpr(SqlExpr):
    operand: SqlExpr
    values: list[SqlExpr]
    negated: bool = False


@dataclass
class LikeExpr(SqlExpr):
    operand: SqlExpr
    pattern: str
    negated: bool = False
    slot: int | None = _slot()      # of the pattern


@dataclass
class FuncCall(SqlExpr):
    name: str
    args: list[SqlExpr]
    is_star: bool = False     # count(*)
    distinct: bool = False


@dataclass
class CaseExpr(SqlExpr):
    whens: list[tuple[SqlExpr, SqlExpr]]
    otherwise: SqlExpr | None


# Subquery expressions.  These only survive until binding: the binder's
# decorrelation pre-pass rewrites them into semi/anti joins (EXISTS,
# IN (SELECT …)) or single-row derived tables (scalar subqueries), so
# no plan node or executable expression ever carries a nested SELECT.
@dataclass
class ExistsExpr(SqlExpr):
    subquery: "SelectStmt"
    negated: bool = False


@dataclass
class InSubquery(SqlExpr):
    operand: SqlExpr
    subquery: "SelectStmt"
    negated: bool = False


@dataclass
class ScalarSubquery(SqlExpr):
    subquery: "SelectStmt"


# ----------------------------------------------------------------------
# query structure
# ----------------------------------------------------------------------
@dataclass
class SelectItem:
    expr: SqlExpr | None      # None means "*"
    alias: str | None = None


@dataclass
class TableRef:
    """A FROM item: base table, table function, or derived table."""

    name: str | None = None                 # base table
    function: str | None = None             # table function name
    function_args: list[SqlExpr] = field(default_factory=list)
    subquery: "SelectStmt | None" = None    # derived table
    alias: str | None = None


@dataclass
class JoinClause:
    kind: str   # "inner" | "left" | "right" | "full" | "semi" | "anti"
    table: TableRef
    #: None only for decorrelated uncorrelated EXISTS (key-less join).
    condition: SqlExpr | None


@dataclass
class OrderItem:
    expr: SqlExpr
    ascending: bool = True


@dataclass
class SelectStmt:
    items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_tables: list[TableRef] = field(default_factory=list)
    joins: list[JoinClause] = field(default_factory=list)
    where: SqlExpr | None = None
    group_by: list[SqlExpr] = field(default_factory=list)
    having: SqlExpr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int = 0
    #: UNION ALL chain: additional SELECTs appended to this one.
    union_all: list["SelectStmt"] = field(default_factory=list)
    #: On the statement :func:`~repro.sql.parser.parse` returns (not on
    #: the SELECTs nested in it): what the parser made of the text's
    #: literals — see :class:`Literals`.
    literals: "Literals | None" = field(default=None, repr=False,
                                        compare=False)


@dataclass(frozen=True)
class Literals:
    """The number and string literals of one statement text, by slot."""

    #: every literal's value, in text order
    values: tuple[int | float | str, ...]
    #: slots read as ``DATE '…'``: the binder only ever sees their day
    #: count
    dates: tuple[int, ...]
    #: slots the parser consumed into something that is not an
    #: expression (``LIMIT n``, ``OFFSET k``), so no plan node can be
    #: tagged with them
    pinned: tuple[int, ...]
