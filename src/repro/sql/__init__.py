"""SQL front end: lexer, parser, binder."""

from ..columnar.catalog import CatalogView
from ..plan.logical import PlanNode
from . import ast
from .binder import bind
from .lexer import Token, scan_literals, tokenize
from .parser import parse


def sql_to_plan(text: str, catalog: CatalogView) -> PlanNode:
    """Parse and bind SQL text into a logical plan.

    ``catalog`` may be a live :class:`~repro.columnar.catalog.Catalog`
    or — the concurrency-safe path — a pinned
    :class:`~repro.columnar.catalog.CatalogSnapshot`.
    """
    return bind(parse(text), catalog)


def sql_to_template(text: str, catalog: CatalogView
                    ) -> tuple[PlanNode, ast.Literals]:
    """:func:`sql_to_plan`, plus what the parser made of the text's
    literals: together, what a statement template is built from (the
    plan's literals are tagged with their slots either way)."""
    stmt = parse(text)
    return bind(stmt, catalog), stmt.literals


__all__ = ["Token", "bind", "parse", "scan_literals", "sql_to_plan",
           "sql_to_template", "tokenize"]
