"""Bind a parsed SELECT statement to a logical plan.

The binder doubles as this system's (deliberately simple) optimizer: it
produces the *canonical* plan shape the recycler graph matches on:

* single-table WHERE conjuncts are pushed below joins (one ``Select``
  directly above each source);
* comma-joins become a left-deep tree in FROM order; equality conjuncts
  between two sources become hash-join keys, remaining multi-source
  conjuncts become the join's extra predicate or a ``Select`` above it;
* aggregates in the SELECT list / HAVING are extracted into an
  ``Aggregate`` node with deterministic output names, followed by an
  optional projection for post-aggregation arithmetic;
* ORDER BY + LIMIT fuse into the heap-based ``TopN`` operator;
* subqueries are *decorrelated before binding*: ``[NOT] EXISTS`` and
  ``[NOT] IN (SELECT …)`` conjuncts become semi/anti join clauses
  against a hidden derived table, and scalar subqueries become hidden
  single-row derived tables cross-joined into FROM — so every spelling
  flows through the same join machinery and the recycler's matching,
  optimizer, and subsumption logic never see a subquery node.

Output column names are made unique deterministically (qualifying with
the source alias only on collision), so structurally identical query
texts always produce structurally identical plans — the property the
recycler's exact matching relies on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..columnar.catalog import CatalogView
from ..errors import SqlError
from ..expr import nodes as e
from ..plan.logical import (Aggregate, Distinct, Join, Limit, PlanNode,
                            Project, Scan, Select, Sort, TableFunctionScan,
                            TopN, UnionAll)
from . import ast

_AGG_NAMES = {"sum", "count", "avg", "min", "max"}

_SCALAR_FUNCS = {"year", "month", "yearmonth", "abs", "round", "floor",
                 "length", "upper", "lower", "substr", "substring",
                 "startswith", "min2", "max2", "bin", "extract_days"}


def _filtered(plan: PlanNode, predicate: e.Expr) -> PlanNode:
    """Place a filter above ``plan``, merging into an existing ``Select``.

    A derived table whose subquery ends in a WHERE would otherwise bind
    an outer filter as ``Select(Select(...))`` while the textually merged
    query binds one ``Select`` with an AND — two shapes for one meaning,
    which the recycler then caches twice.  Constructing through this
    helper keeps the binder's output canonical: one ``Select`` per spot,
    conjuncts combined (``And`` flattens; its key ordering makes the
    conjunct order irrelevant to the fingerprint)."""
    if isinstance(plan, Select):
        return Select(plan.child, e.And([plan.predicate, predicate]))
    return Select(plan, predicate)


def bind(stmt: ast.SelectStmt, catalog: CatalogView) -> PlanNode:
    """Entry point: statement -> logical plan."""
    plan = _Binder(catalog).bind_select(stmt)
    if stmt.union_all:
        parts = [plan] + [_Binder(catalog).bind_select(s)
                          for s in stmt.union_all]
        plan = UnionAll(parts)
    return plan


@dataclass
class _Source:
    """One bound FROM item."""

    alias: str
    plan: PlanNode
    #: source column name -> plan output name (after de-collision)
    names: dict[str, str]
    order: int

    def resolve(self, column: str) -> str | None:
        return self.names.get(column)


@dataclass
class _Scope:
    sources: list[_Source] = field(default_factory=list)

    def resolve(self, ident: ast.Identifier) -> tuple[_Source, str]:
        if ident.qualifier is not None:
            for source in self.sources:
                if source.alias == ident.qualifier:
                    plan_name = source.resolve(ident.name)
                    if plan_name is None:
                        raise SqlError(
                            f"column {ident.display()!r} not found in"
                            f" {ident.qualifier!r}")
                    return source, plan_name
            raise SqlError(f"unknown table alias {ident.qualifier!r}")
        hits = [(source, source.resolve(ident.name))
                for source in self.sources
                if source.resolve(ident.name) is not None]
        if not hits:
            raise SqlError(f"unknown column {ident.name!r}")
        if len(hits) > 1:
            owners = [s.alias for s, _ in hits]
            raise SqlError(
                f"ambiguous column {ident.name!r} (in {owners})")
        return hits[0]


class _Binder:
    def __init__(self, catalog: CatalogView) -> None:
        self.catalog = catalog

    # ==================================================================
    def bind_select(self, stmt: ast.SelectStmt) -> PlanNode:
        stmt = _decorrelate(stmt)
        scope = self._bind_from(stmt)
        plan = self._build_join_tree(stmt, scope)
        plan = self._apply_grouping(stmt, scope, plan)
        if stmt.distinct:
            plan = Distinct(plan)
        plan = self._apply_ordering(stmt, plan)
        return plan

    # ------------------------------------------------------------------
    # FROM binding with deterministic name de-collision
    # ------------------------------------------------------------------
    def _bind_from(self, stmt: ast.SelectStmt) -> _Scope:
        refs = list(stmt.from_tables) + [j.table for j in stmt.joins]
        needed = self._needed_columns(stmt, refs)
        # A bare ``*`` select item needs every column of every source,
        # not just the ones referenced by other expressions.
        star = any(item.expr is None for item in stmt.items)
        scope = _Scope()
        used_names: set[str] = set()
        for order, ref in enumerate(refs):
            source = self._bind_table_ref(ref, needed, used_names, order,
                                          select_star=star)
            scope.sources.append(source)
            used_names.update(source.names.values())
        return source_scope_check(scope)

    def _bind_table_ref(self, ref: ast.TableRef, needed: dict,
                        used_names: set[str], order: int,
                        select_star: bool = False) -> _Source:
        if ref.subquery is not None:
            plan = bind(ref.subquery, self.catalog)
            columns = plan.output_schema(self.catalog).names
            alias = ref.alias or f"__dt{order}"
        elif ref.function is not None:
            args = [_literal_value(a) for a in ref.function_args]
            plan = TableFunctionScan(ref.function, [v for v, _ in args],
                                     _slots([slot for _, slot in args]))
            columns = plan.output_schema(self.catalog).names
            alias = ref.alias or ref.function
        else:
            assert ref.name is not None
            alias = ref.alias or ref.name
            table_cols = set(
                self.catalog.table_entry(ref.name).table.schema.names)
            wanted = needed.get(alias) or needed.get(ref.name) or set()
            star = needed.get("*", set())
            if select_star:
                columns = sorted(table_cols)
            else:
                columns = sorted((wanted | star) & table_cols) or \
                    sorted(table_cols)
            unresolved = wanted - table_cols
            if unresolved:
                raise SqlError(
                    f"columns {sorted(unresolved)} not in table"
                    f" {ref.name!r}")
            plan = Scan(ref.name, columns)
        # De-collide output names deterministically.
        names: dict[str, str] = {}
        renames: list[tuple[str, str]] = []
        for column in columns:
            plan_name = column
            if plan_name in used_names:
                plan_name = f"{alias}_{column}"
            suffix = 2
            while plan_name in used_names or plan_name in names.values():
                plan_name = f"{alias}_{column}_{suffix}"
                suffix += 1
            names[column] = plan_name
            if plan_name != column:
                renames.append((column, plan_name))
        if renames:
            outputs = [(names[c], e.Col(c)) for c in columns]
            plan = Project(plan, outputs)
        return _Source(alias=alias, plan=plan, names=names, order=order)

    def _needed_columns(self, stmt: ast.SelectStmt,
                        refs: list[ast.TableRef]) -> dict[str, set[str]]:
        """Which columns each base table must scan.

        Returns alias -> column set; unqualified identifiers land in the
        pseudo-key ``"*"`` and are offered to every table that has them.
        """
        needed: dict[str, set[str]] = {}

        def note(ident: ast.Identifier) -> None:
            key = ident.qualifier or "*"
            needed.setdefault(key, set()).add(ident.name)

        for expr in _all_expressions(stmt):
            for ident in _identifiers_in(expr):
                note(ident)
        return needed

    # ------------------------------------------------------------------
    # join tree construction
    # ------------------------------------------------------------------
    def _build_join_tree(self, stmt: ast.SelectStmt,
                         scope: _Scope) -> PlanNode:
        comma_sources = scope.sources[:len(stmt.from_tables)]
        join_sources = scope.sources[len(stmt.from_tables):]

        conjuncts = _split_conjuncts_ast(stmt.where)
        single, multi = self._classify_conjuncts(conjuncts, scope)

        # Push single-source filters directly above their source.
        filtered: dict[int, PlanNode] = {}
        for source in scope.sources:
            plan = source.plan
            mine = single.get(source.order, [])
            if mine:
                predicate = self._bind_conjunction(mine, scope)
                plan = _filtered(plan, predicate)
            filtered[source.order] = plan

        current = filtered[comma_sources[0].order]
        joined = {comma_sources[0].order}

        for source in comma_sources[1:]:
            right = filtered[source.order]
            keys, others = self._pick_join_keys(multi, joined,
                                                source.order, scope)
            if not keys:
                extra = self._bind_conjunction(others, scope) if others \
                    else None
                if extra is not None or _is_single_row(right):
                    current = self._cross_join(current, right, "inner",
                                               extra)
                else:
                    raise SqlError(
                        f"no join condition connects {source.alias!r}")
            else:
                current = Join(current, right, "inner",
                               [k for k, _ in keys],
                               [k for _, k in keys], None)
                # Leftover conjuncts become an explicit Select so the plan
                # keeps the σ-above-join shape the proactive rules target.
                if others:
                    current = _filtered(
                        current, self._bind_conjunction(others, scope))
            joined.add(source.order)

        for clause, source in zip(stmt.joins, join_sources):
            on_conjuncts = _split_conjuncts_ast(clause.condition)
            keys, extras = self._on_condition_keys(on_conjuncts, joined,
                                                   source.order, scope)
            right = filtered[source.order]
            extra = self._bind_conjunction(extras, scope) if extras \
                else None
            if keys:
                if clause.kind == "inner" and extra is not None:
                    current = _filtered(
                        Join(current, right, "inner",
                             [k for k, _ in keys],
                             [k for _, k in keys], None),
                        extra)
                else:
                    current = Join(current, right, clause.kind,
                                   [k for k, _ in keys],
                                   [k for _, k in keys], extra)
            else:
                current = self._cross_join(current, right, clause.kind,
                                           extra)
            joined.add(source.order)

        # Any remaining multi-source conjuncts become a final filter.
        leftovers = [c for owner, items in multi.items()
                     for c in items if owner is None]
        if leftovers:
            current = _filtered(current,
                                self._bind_conjunction(leftovers, scope))
        return current

    def _cross_join(self, left: PlanNode, right: PlanNode, kind: str,
                    extra: e.Expr | None) -> PlanNode:
        """Key-less join via a constant key (used for single-row derived
        tables, the decorrelated form of scalar subqueries)."""
        left_aug = Project(left, [(n, e.Col(n)) for n in
                                  left.output_schema(self.catalog).names]
                           + [("__cross_l", e.Lit(1))])
        right_aug = Project(right, [(n, e.Col(n)) for n in
                                    right.output_schema(
                                        self.catalog).names]
                            + [("__cross_r", e.Lit(1))])
        join = Join(left_aug, right_aug, kind or "inner",
                    ["__cross_l"], ["__cross_r"], extra)
        keep = [n for n in join.output_schema(self.catalog).names
                if n not in ("__cross_l", "__cross_r")]
        return Project(join, [(n, e.Col(n)) for n in keep])

    def _classify_conjuncts(self, conjuncts: list[ast.SqlExpr],
                            scope: _Scope):
        """Split WHERE conjuncts into per-source filters and join-level
        conjuncts (keyed into a list consumed by the join builder)."""
        single: dict[int, list[ast.SqlExpr]] = {}
        multi: dict[object, list[ast.SqlExpr]] = {None: []}
        for conjunct in conjuncts:
            owners = {scope.resolve(i)[0].order
                      for i in _identifiers_in(conjunct)}
            if len(owners) == 1:
                single.setdefault(owners.pop(), []).append(conjunct)
            else:
                multi[None].append(conjunct)
        return single, multi

    def _pick_join_keys(self, multi: dict, joined: set[int],
                        new_order: int, scope: _Scope):
        """Extract equality conjuncts linking ``joined`` to the new
        source; consumed conjuncts are removed from ``multi``."""
        keys: list[tuple[str, str]] = []
        others: list[ast.SqlExpr] = []
        remaining: list[ast.SqlExpr] = []
        available = joined | {new_order}
        for conjunct in multi[None]:
            owners = {scope.resolve(i)[0].order
                      for i in _identifiers_in(conjunct)}
            if not owners <= available:
                remaining.append(conjunct)
                continue
            key = self._as_equality_key(conjunct, joined, new_order, scope)
            if key is not None:
                keys.append(key)
            else:
                others.append(conjunct)
        multi[None] = remaining
        return keys, others

    def _on_condition_keys(self, conjuncts: list[ast.SqlExpr],
                           joined: set[int], new_order: int,
                           scope: _Scope):
        keys: list[tuple[str, str]] = []
        extras: list[ast.SqlExpr] = []
        for conjunct in conjuncts:
            key = self._as_equality_key(conjunct, joined, new_order, scope)
            if key is not None:
                keys.append(key)
            else:
                extras.append(conjunct)
        return keys, extras

    def _as_equality_key(self, conjunct: ast.SqlExpr, joined: set[int],
                         new_order: int,
                         scope: _Scope) -> tuple[str, str] | None:
        if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
            return None
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, ast.Identifier)
                and isinstance(right, ast.Identifier)):
            return None
        left_source, left_name = scope.resolve(left)
        right_source, right_name = scope.resolve(right)
        if left_source.order in joined and right_source.order == new_order:
            return left_name, right_name
        if right_source.order in joined and left_source.order == new_order:
            return right_name, left_name
        return None

    def _bind_conjunction(self, conjuncts: list[ast.SqlExpr],
                          scope: _Scope) -> e.Expr:
        bound = [self.bind_scalar(c, scope) for c in conjuncts]
        return bound[0] if len(bound) == 1 else e.And(bound)

    # ------------------------------------------------------------------
    # grouping / aggregation
    # ------------------------------------------------------------------
    def _apply_grouping(self, stmt: ast.SelectStmt, scope: _Scope,
                        plan: PlanNode) -> PlanNode:
        has_aggregates = any(
            _contains_aggregate(item.expr) for item in stmt.items
            if item.expr is not None)
        if stmt.having is not None:
            has_aggregates = True
        if not stmt.group_by and not has_aggregates:
            return self._plain_projection(stmt, scope, plan)

        # 1. group keys
        group_keys: list[tuple[str, e.Expr]] = []
        key_by_ast_key: dict[tuple, str] = {}
        for i, group_expr in enumerate(stmt.group_by):
            bound = self.bind_scalar(group_expr, scope)
            name = self._group_key_name(group_expr, stmt, bound, i)
            group_keys.append((name, bound))
            key_by_ast_key[bound.key()] = name

        # 2. aggregates (unique by canonical key)
        aggregates: list[e.AggSpec] = []
        agg_by_key: dict[tuple, str] = {}

        def register_aggregate(call: ast.FuncCall,
                               preferred: str | None) -> str:
            spec = self._bind_aggregate(call, scope, preferred
                                        or f"agg_{len(aggregates)}")
            key = spec.key()
            if key in agg_by_key:
                return agg_by_key[key]
            # Avoid name collisions with keys/earlier aggregates.
            taken = {n for n, _ in group_keys} | set(agg_by_key.values())
            name = spec.name
            suffix = 2
            while name in taken:
                name = f"{spec.name}_{suffix}"
                suffix += 1
            spec = spec.with_name(name)
            aggregates.append(spec)
            agg_by_key[key] = name
            return name

        # 3. rewrite output/having/order expressions over the aggregate.
        outputs: list[tuple[str, e.Expr]] = []
        trivial = True
        for i, item in enumerate(stmt.items):
            if item.expr is None:
                raise SqlError("SELECT * cannot be combined with GROUP BY")
            rewritten = self._rewrite_post_agg(
                item.expr, scope, key_by_ast_key, register_aggregate,
                item.alias)
            name = item.alias or self._default_name(item.expr, i)
            outputs.append((name, rewritten))
            if not (isinstance(rewritten, e.Col)
                    and rewritten.name == name):
                trivial = False

        plan = Aggregate(plan, group_keys, aggregates)
        if stmt.having is not None:
            having = self._rewrite_post_agg(stmt.having, scope,
                                            key_by_ast_key,
                                            register_aggregate, None)
            plan = _filtered(plan, having)
        agg_output_names = [n for n, _ in group_keys] \
            + [a.name for a in aggregates]
        if trivial and [n for n, _ in outputs] == agg_output_names:
            return plan
        return Project(plan, outputs)

    def _group_key_name(self, group_expr: ast.SqlExpr,
                        stmt: ast.SelectStmt, bound: e.Expr,
                        index: int) -> str:
        if isinstance(bound, e.Col):
            return bound.name
        # a select item with the same expression text provides the alias
        for item in stmt.items:
            if item.expr is not None and item.alias and \
                    _ast_equal(item.expr, group_expr):
                return item.alias
        return f"gk_{index}"

    def _bind_aggregate(self, call: ast.FuncCall, scope: _Scope,
                        name: str) -> e.AggSpec:
        func = call.name
        if func == "count" and call.is_star:
            return e.AggSpec("count_star", None, name)
        if func == "count" and call.distinct:
            arg = self.bind_scalar(call.args[0], scope)
            return e.AggSpec("count_distinct", arg, name)
        if len(call.args) != 1:
            raise SqlError(f"aggregate {func} takes one argument")
        arg = self.bind_scalar(call.args[0], scope)
        return e.AggSpec(func, arg, name)

    def _rewrite_post_agg(self, expr: ast.SqlExpr, scope: _Scope,
                          key_names: dict[tuple, str], register_aggregate,
                          preferred: str | None) -> e.Expr:
        """Bind an expression in the post-aggregation scope: aggregate
        calls become references to aggregate outputs, group-key
        subexpressions become key column references."""
        if isinstance(expr, ast.FuncCall) and expr.name in _AGG_NAMES:
            return e.Col(register_aggregate(expr, preferred))
        bound_try = None
        try:
            bound_try = self.bind_scalar(expr, scope)
        except SqlError:
            bound_try = None
        if bound_try is not None and bound_try.key() in key_names:
            return e.Col(key_names[bound_try.key()])
        if isinstance(expr, ast.Identifier):
            # Not a key and not an aggregate: invalid post-agg reference,
            # unless it names an output key directly.
            for key_name in key_names.values():
                if key_name == expr.name:
                    return e.Col(key_name)
            raise SqlError(
                f"column {expr.display()!r} must appear in GROUP BY or"
                " inside an aggregate")
        return self._rebuild_post_agg(expr, scope, key_names,
                                      register_aggregate)

    def _rebuild_post_agg(self, expr: ast.SqlExpr, scope: _Scope,
                          key_names, register_aggregate) -> e.Expr:
        recurse = lambda x: self._rewrite_post_agg(  # noqa: E731
            x, scope, key_names, register_aggregate, None)
        if isinstance(expr, ast.Binary):
            if expr.op in ("and", "or"):
                parts = [recurse(expr.left), recurse(expr.right)]
                return e.And(parts) if expr.op == "and" else e.Or(parts)
            if expr.op in ("=", "<>", "<", "<=", ">", ">="):
                return e.Cmp(expr.op, recurse(expr.left),
                             recurse(expr.right))
            return e.Arith(expr.op, recurse(expr.left),
                           recurse(expr.right))
        if isinstance(expr, ast.Unary):
            if expr.op == "not":
                return e.Not(recurse(expr.operand))
            return e.Arith("-", e.Lit(0), recurse(expr.operand))
        if isinstance(expr, (ast.NumberLit, ast.StringLit, ast.DateLit,
                             ast.BoolLit)):
            return self.bind_scalar(expr, scope)
        if isinstance(expr, ast.FuncCall) and expr.name not in _AGG_NAMES:
            args = [recurse(a) for a in expr.args]
            return self._bind_function(expr.name, args)
        raise SqlError(
            f"unsupported expression after aggregation: {expr!r}")

    def _plain_projection(self, stmt: ast.SelectStmt, scope: _Scope,
                          plan: PlanNode) -> PlanNode:
        current_names = plan.output_schema(self.catalog).names
        outputs: list[tuple[str, e.Expr]] = []
        star = all(item.expr is None for item in stmt.items)
        if star:
            return plan
        for i, item in enumerate(stmt.items):
            if item.expr is None:
                for name in current_names:
                    outputs.append((name, e.Col(name)))
                continue
            bound = self.bind_scalar(item.expr, scope)
            name = item.alias or self._default_name(item.expr, i)
            outputs.append((name, bound))
        if [n for n, _ in outputs] == current_names and all(
                isinstance(x, e.Col) and x.name == n
                for n, x in outputs):
            return plan
        return Project(plan, outputs)

    def _default_name(self, expr: ast.SqlExpr, index: int) -> str:
        if isinstance(expr, ast.Identifier):
            return expr.name
        if isinstance(expr, ast.FuncCall):
            return f"{expr.name}_{index}"
        return f"col_{index}"

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def _apply_ordering(self, stmt: ast.SelectStmt,
                        plan: PlanNode) -> PlanNode:
        if not stmt.order_by:
            if stmt.limit is not None:
                return Limit(plan, stmt.limit, stmt.offset)
            return plan
        available = plan.output_schema(self.catalog).names
        keys: list[tuple[str, bool]] = []
        for item in stmt.order_by:
            name = self._order_column(item.expr, available)
            keys.append((name, item.ascending))
        if stmt.limit is not None:
            return TopN(plan, keys, stmt.limit, stmt.offset)
        return Sort(plan, keys)

    def _order_column(self, expr: ast.SqlExpr,
                      available: list[str]) -> str:
        if isinstance(expr, ast.Identifier) and expr.qualifier is None \
                and expr.name in available:
            return expr.name
        if isinstance(expr, ast.Identifier) and expr.qualifier is not None:
            qualified = f"{expr.qualifier}_{expr.name}"
            if qualified in available:
                return qualified
            if expr.name in available:
                return expr.name
        raise SqlError(
            f"ORDER BY must reference an output column; have {available}")

    # ------------------------------------------------------------------
    # scalar expression binding
    # ------------------------------------------------------------------
    def bind_scalar(self, expr: ast.SqlExpr, scope: _Scope) -> e.Expr:
        if isinstance(expr, ast.Identifier):
            _, plan_name = scope.resolve(expr)
            return e.Col(plan_name)
        if isinstance(expr, (ast.NumberLit, ast.StringLit)):
            return e.Lit(expr.value, slot=expr.slot)
        if isinstance(expr, ast.DateLit):
            return e.Lit.date(expr.iso, expr.slot)
        if isinstance(expr, ast.BoolLit):
            return e.Lit(expr.value)
        if isinstance(expr, ast.Unary):
            if expr.op == "not":
                return e.Not(self.bind_scalar(expr.operand, scope))
            operand = self.bind_scalar(expr.operand, scope)
            if isinstance(operand, e.Lit) and \
                    isinstance(operand.value, (int, float)):
                return operand.negated()
            return e.Arith("-", e.Lit(0), operand)
        if isinstance(expr, ast.Binary):
            left = self.bind_scalar(expr.left, scope)
            right = self.bind_scalar(expr.right, scope)
            if expr.op == "and":
                return e.And([left, right])
            if expr.op == "or":
                return e.Or([left, right])
            if expr.op in ("=", "<>", "<", "<=", ">", ">="):
                return e.Cmp(expr.op, left, right)
            return e.Arith(expr.op, left, right)
        if isinstance(expr, ast.BetweenExpr):
            operand = self.bind_scalar(expr.operand, scope)
            bounds = e.And([
                e.Cmp(">=", operand, self.bind_scalar(expr.low, scope)),
                e.Cmp("<=", operand, self.bind_scalar(expr.high, scope)),
            ])
            return e.Not(bounds) if expr.negated else bounds
        if isinstance(expr, ast.InExpr):
            operand = self.bind_scalar(expr.operand, scope)
            values = []
            for value in expr.values:
                bound = self.bind_scalar(value, scope)
                if not isinstance(bound, e.Lit):
                    raise SqlError("IN list values must be literals")
                values.append(bound)
            # negation lives inside InList (not a Not wrapper) so the
            # NaN-excluding NOT IN semantics apply and the fingerprint
            # distinguishes the two forms.
            return e.InList(operand, [v.value for v in values],
                            expr.negated, _slots([v.slot for v in values]))
        if isinstance(expr, ast.LikeExpr):
            operand = self.bind_scalar(expr.operand, scope)
            return e.Like(operand, expr.pattern, expr.negated, expr.slot)
        if isinstance(expr, ast.CaseExpr):
            whens = [(self.bind_scalar(c, scope),
                      self.bind_scalar(v, scope))
                     for c, v in expr.whens]
            if expr.otherwise is not None:
                otherwise = self.bind_scalar(expr.otherwise, scope)
            else:
                otherwise = _zero_like(whens[0][1])
            return e.Case(whens, otherwise)
        if isinstance(expr, ast.FuncCall):
            if expr.name in _AGG_NAMES:
                raise SqlError(
                    f"aggregate {expr.name}() not allowed here")
            args = [self.bind_scalar(a, scope) for a in expr.args]
            return self._bind_function(expr.name, args)
        if isinstance(expr, (ast.ExistsExpr, ast.InSubquery)):
            raise SqlError(
                "EXISTS / IN (SELECT ...) is only supported as a"
                " top-level WHERE conjunct")
        if isinstance(expr, ast.ScalarSubquery):
            raise SqlError(
                "scalar subqueries are not supported in this position")
        raise SqlError(f"unsupported expression {expr!r}")

    def _bind_function(self, name: str, args: list[e.Expr]) -> e.Expr:
        if name == "substring":
            name = "substr"
        if name not in _SCALAR_FUNCS:
            raise SqlError(f"unknown function {name!r}")
        return e.Func(name, args)


# ----------------------------------------------------------------------
# AST utilities
# ----------------------------------------------------------------------
def _split_conjuncts_ast(expr: ast.SqlExpr | None) -> list[ast.SqlExpr]:
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "and":
        return _split_conjuncts_ast(expr.left) \
            + _split_conjuncts_ast(expr.right)
    return [expr]


def _identifiers_in(expr: ast.SqlExpr):
    if isinstance(expr, ast.Identifier):
        yield expr
    elif isinstance(expr, ast.Binary):
        yield from _identifiers_in(expr.left)
        yield from _identifiers_in(expr.right)
    elif isinstance(expr, ast.Unary):
        yield from _identifiers_in(expr.operand)
    elif isinstance(expr, ast.BetweenExpr):
        yield from _identifiers_in(expr.operand)
        yield from _identifiers_in(expr.low)
        yield from _identifiers_in(expr.high)
    elif isinstance(expr, ast.InExpr):
        yield from _identifiers_in(expr.operand)
        for value in expr.values:
            yield from _identifiers_in(value)
    elif isinstance(expr, ast.LikeExpr):
        yield from _identifiers_in(expr.operand)
    elif isinstance(expr, ast.FuncCall):
        for arg in expr.args:
            yield from _identifiers_in(arg)
    elif isinstance(expr, ast.CaseExpr):
        for condition, value in expr.whens:
            yield from _identifiers_in(condition)
            yield from _identifiers_in(value)
        if expr.otherwise is not None:
            yield from _identifiers_in(expr.otherwise)
    elif isinstance(expr, ast.InSubquery):
        # the subquery body is a separate scope; only the probe operand
        # references the enclosing one.
        yield from _identifiers_in(expr.operand)
    # ExistsExpr / ScalarSubquery reference nothing in this scope.


def _all_expressions(stmt: ast.SelectStmt):
    for item in stmt.items:
        if item.expr is not None:
            yield item.expr
    if stmt.where is not None:
        yield stmt.where
    yield from stmt.group_by
    if stmt.having is not None:
        yield stmt.having
    for order in stmt.order_by:
        yield order.expr
    for join in stmt.joins:
        if join.condition is not None:
            yield join.condition


def _contains_aggregate(expr: ast.SqlExpr | None) -> bool:
    if expr is None:
        return False
    if isinstance(expr, ast.FuncCall) and expr.name in _AGG_NAMES:
        return True
    return any(_contains_aggregate(c) for c in _ast_children(expr))


def _ast_children(expr: ast.SqlExpr):
    if isinstance(expr, ast.Binary):
        return [expr.left, expr.right]
    if isinstance(expr, ast.Unary):
        return [expr.operand]
    if isinstance(expr, ast.BetweenExpr):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, ast.InExpr):
        return [expr.operand] + list(expr.values)
    if isinstance(expr, ast.LikeExpr):
        return [expr.operand]
    if isinstance(expr, ast.FuncCall):
        return list(expr.args)
    if isinstance(expr, ast.CaseExpr):
        out = []
        for condition, value in expr.whens:
            out.extend([condition, value])
        if expr.otherwise is not None:
            out.append(expr.otherwise)
        return out
    if isinstance(expr, ast.InSubquery):
        return [expr.operand]
    # ExistsExpr / ScalarSubquery: the nested SELECT is its own scope,
    # never walked as a child expression.
    return []


# ----------------------------------------------------------------------
# subquery decorrelation (AST -> AST, before binding)
# ----------------------------------------------------------------------
_SUBQUERY_NODES = (ast.ExistsExpr, ast.InSubquery, ast.ScalarSubquery)


def _walk_ast(expr: ast.SqlExpr):
    yield expr
    for child in _ast_children(expr):
        yield from _walk_ast(child)


def _has_subqueries(stmt: ast.SelectStmt) -> bool:
    return any(isinstance(node, _SUBQUERY_NODES)
               for expr in _all_expressions(stmt)
               for node in _walk_ast(expr))


def _and_chain(conjuncts: list[ast.SqlExpr]) -> ast.SqlExpr | None:
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = ast.Binary("and", result, conjunct)
    return result


def _decorrelate(stmt: ast.SelectStmt) -> ast.SelectStmt:
    """Rewrite subquery expressions into joins / derived tables.

    ``[NOT] EXISTS`` and ``[NOT] IN (SELECT …)`` conjuncts in WHERE
    become semi/anti :class:`ast.JoinClause` entries against a hidden
    derived table (correlated equality conjuncts are pulled out of the
    subquery's WHERE into the join condition); scalar subqueries —
    required to be single-row aggregates — become hidden derived tables
    in FROM, cross-joined by the existing single-row machinery.  The
    result is a plain SELECT the binder already knows how to
    canonicalize, so equivalent subquery spellings share fingerprints
    with their join spellings.  The input statement is never mutated.
    """
    if not _has_subqueries(stmt):
        return stmt
    stmt = copy.deepcopy(stmt)
    state = _Decorrelator(stmt)
    kept: list[ast.SqlExpr] = []
    for conjunct in _split_conjuncts_ast(stmt.where):
        kept.extend(state.rewrite_conjunct(conjunct))
    kept = [state.rewrite_scalars(c) for c in kept]
    stmt.where = _and_chain(kept)
    stmt.items = [ast.SelectItem(state.rewrite_scalars(item.expr),
                                 item.alias)
                  if item.expr is not None else item
                  for item in stmt.items]
    stmt.group_by = [state.rewrite_scalars(g) for g in stmt.group_by]
    if stmt.having is not None:
        stmt.having = state.rewrite_scalars(stmt.having)
    return stmt


class _Decorrelator:
    """Mutable rewrite state over one (deep-copied) SELECT statement."""

    def __init__(self, stmt: ast.SelectStmt) -> None:
        self.stmt = stmt
        self._counter = 0

    def _fresh(self) -> int:
        n = self._counter
        self._counter += 1
        return n

    # -- WHERE conjuncts ----------------------------------------------
    def rewrite_conjunct(self,
                         conjunct: ast.SqlExpr) -> list[ast.SqlExpr]:
        """Turn an EXISTS / IN-subquery conjunct into a join clause;
        returns the conjuncts that remain in WHERE."""
        node: ast.SqlExpr = conjunct
        negated = False
        while isinstance(node, ast.Unary) and node.op == "not":
            node = node.operand
            negated = not negated
        if isinstance(node, ast.ExistsExpr):
            self._add_exists_join(node.subquery,
                                  negated ^ node.negated)
            return []
        if isinstance(node, ast.InSubquery):
            return self._add_in_join(node, negated ^ node.negated)
        return [conjunct]

    def _add_exists_join(self, sub: ast.SelectStmt,
                         negated: bool) -> None:
        kind = "anti" if negated else "semi"
        n = self._fresh()
        alias = f"__sq{n}"
        _check_subquery(sub, "EXISTS")
        on, items = self._pull_correlation(sub, alias, n)
        # EXISTS only asks whether rows exist; its select list is
        # replaced by the correlation columns (or a constant).
        sub.items = items or [ast.SelectItem(ast.NumberLit(1),
                                             alias=f"__e{n}")]
        sub.distinct = False
        self.stmt.joins.append(ast.JoinClause(
            kind, ast.TableRef(subquery=sub, alias=alias),
            _and_chain(on)))

    def _add_in_join(self, node: ast.InSubquery,
                     negated: bool) -> list[ast.SqlExpr]:
        operand = node.operand
        if not isinstance(operand, ast.Identifier):
            raise SqlError("IN (SELECT ...) operand must be a column")
        sub = node.subquery
        _check_subquery(sub, "IN")
        if len(sub.items) != 1 or sub.items[0].expr is None:
            raise SqlError("IN subquery must select exactly one column")
        n = self._fresh()
        alias = f"__sq{n}"
        inner_name = f"__in{n}"
        on, items = self._pull_correlation(sub, alias, n)
        sub.items = [ast.SelectItem(sub.items[0].expr,
                                    alias=inner_name)] + items
        sub.distinct = False
        on.insert(0, ast.Binary(
            "=", operand, ast.Identifier(inner_name, qualifier=alias)))
        kind = "anti" if negated else "semi"
        self.stmt.joins.append(ast.JoinClause(
            kind, ast.TableRef(subquery=sub, alias=alias),
            _and_chain(on)))
        if negated:
            # NaN guard: NaN never equals anything, so the anti join
            # would pass every NaN probe row — but ``NaN NOT IN (…)``
            # is *unknown*, not true.  ``x = x`` fails exactly for NaN
            # and is vacuous for every other value.
            return [ast.Binary("=", operand, operand)]
        return []

    def _pull_correlation(self, sub: ast.SelectStmt, alias: str,
                          n: int):
        """Extract ``outer.col = inner_col`` conjuncts from the
        subquery's WHERE; each becomes a hidden output column of the
        derived table plus a join-condition equality."""
        inner = {ref.alias or ref.name or ref.function
                 for ref in sub.from_tables}
        inner |= {j.table.alias or j.table.name or j.table.function
                  for j in sub.joins}
        kept: list[ast.SqlExpr] = []
        on: list[ast.SqlExpr] = []
        items: list[ast.SelectItem] = []
        for conjunct in _split_conjuncts_ast(sub.where):
            outer_refs = [i for i in _identifiers_in(conjunct)
                          if i.qualifier is not None
                          and i.qualifier not in inner]
            if not outer_refs:
                kept.append(conjunct)
                continue
            pulled = _as_correlated_equality(conjunct, inner, alias, n,
                                             len(items))
            if pulled is None:
                raise SqlError(
                    "unsupported correlated subquery predicate"
                    f" {conjunct!r}: only equality with a qualified"
                    " outer column is decorrelated")
            item, condition = pulled
            items.append(item)
            on.append(condition)
        if items and (sub.group_by or sub.having is not None):
            raise SqlError(
                "correlated subquery with GROUP BY/HAVING is not"
                " supported")
        sub.where = _and_chain(kept)
        sub.order_by = []   # ordering is meaningless under semi/anti
        return on, items

    # -- scalar subqueries --------------------------------------------
    def rewrite_scalars(self, expr: ast.SqlExpr) -> ast.SqlExpr:
        if isinstance(expr, ast.ScalarSubquery):
            return self._add_scalar_table(expr.subquery)
        if isinstance(expr, (ast.ExistsExpr, ast.InSubquery)):
            raise SqlError(
                "EXISTS / IN (SELECT ...) is only supported as a"
                " top-level WHERE conjunct")
        if isinstance(expr, ast.Binary):
            expr.left = self.rewrite_scalars(expr.left)
            expr.right = self.rewrite_scalars(expr.right)
        elif isinstance(expr, ast.Unary):
            expr.operand = self.rewrite_scalars(expr.operand)
        elif isinstance(expr, ast.BetweenExpr):
            expr.operand = self.rewrite_scalars(expr.operand)
            expr.low = self.rewrite_scalars(expr.low)
            expr.high = self.rewrite_scalars(expr.high)
        elif isinstance(expr, ast.InExpr):
            expr.operand = self.rewrite_scalars(expr.operand)
            expr.values = [self.rewrite_scalars(v) for v in expr.values]
        elif isinstance(expr, ast.LikeExpr):
            expr.operand = self.rewrite_scalars(expr.operand)
        elif isinstance(expr, ast.FuncCall):
            expr.args = [self.rewrite_scalars(a) for a in expr.args]
        elif isinstance(expr, ast.CaseExpr):
            expr.whens = [(self.rewrite_scalars(c),
                           self.rewrite_scalars(v))
                          for c, v in expr.whens]
            if expr.otherwise is not None:
                expr.otherwise = self.rewrite_scalars(expr.otherwise)
        return expr

    def _add_scalar_table(self, sub: ast.SelectStmt) -> ast.Identifier:
        _check_subquery(sub, "scalar")
        if len(sub.items) != 1 or sub.items[0].expr is None:
            raise SqlError(
                "scalar subquery must select exactly one column")
        if sub.group_by or not _contains_aggregate(sub.items[0].expr):
            raise SqlError(
                "scalar subquery must be a single-row aggregate"
                " (no GROUP BY)")
        n = self._fresh()
        alias = f"__ssq{n}"
        name = f"__sc{n}"
        sub.items = [ast.SelectItem(sub.items[0].expr, alias=name)]
        self.stmt.from_tables.append(
            ast.TableRef(subquery=sub, alias=alias))
        return ast.Identifier(name, qualifier=alias)


def _check_subquery(sub: ast.SelectStmt, what: str) -> None:
    if sub.limit is not None:
        raise SqlError(f"{what} subquery cannot use LIMIT")
    if sub.union_all:
        raise SqlError(f"{what} subquery cannot use UNION ALL")


def _as_correlated_equality(conjunct: ast.SqlExpr, inner: set,
                            alias: str, n: int, index: int):
    if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="
            and isinstance(conjunct.left, ast.Identifier)
            and isinstance(conjunct.right, ast.Identifier)):
        return None

    def is_outer(ident: ast.Identifier) -> bool:
        return ident.qualifier is not None \
            and ident.qualifier not in inner

    left, right = conjunct.left, conjunct.right
    if is_outer(left) == is_outer(right):
        return None
    outer_ident = left if is_outer(left) else right
    inner_ident = right if is_outer(left) else left
    name = f"__cor{n}_{index}"
    item = ast.SelectItem(inner_ident, alias=name)
    condition = ast.Binary("=", outer_ident,
                           ast.Identifier(name, qualifier=alias))
    return item, condition


def _ast_equal(a: ast.SqlExpr, b: ast.SqlExpr) -> bool:
    return repr(a) == repr(b)   # dataclass reprs are structural


def _literal_value(expr: ast.SqlExpr) -> tuple[object, int | None]:
    """A table-function argument's value and the slot it came from (as
    :attr:`repro.expr.nodes.Lit.slot`)."""
    if isinstance(expr, (ast.NumberLit, ast.StringLit)):
        return expr.value, expr.slot
    if isinstance(expr, ast.DateLit):
        from ..columnar.types import date_to_days
        return date_to_days(expr.iso), expr.slot
    if isinstance(expr, ast.Unary) and expr.op == "-":
        value, slot = _literal_value(expr.operand)
        return -value, None if slot is None else ~slot
    raise SqlError("table function arguments must be literals")


def _slots(slots: list[int | None]) -> list[int | None] | None:
    """``slots``, or ``None`` when no value is tagged."""
    return slots if any(slot is not None for slot in slots) else None


def _zero_like(value: e.Expr) -> e.Expr:
    """Explicit CASE default (this engine has no NULLs)."""
    return e.Lit(0)


def _is_single_row(plan: PlanNode) -> bool:
    """Conservative single-row detection: a scalar aggregate (possibly
    under projections/limits) produces exactly one row."""
    if isinstance(plan, Aggregate):
        return not plan.group_keys
    if isinstance(plan, (Project, Limit, Select)):
        return _is_single_row(plan.children[0])
    return False


def source_scope_check(scope: _Scope) -> _Scope:
    aliases = [s.alias for s in scope.sources]
    if len(set(aliases)) != len(aliases):
        raise SqlError(f"duplicate table aliases: {aliases}")
    return scope
