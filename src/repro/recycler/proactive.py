"""Proactive recycling strategies (paper Section IV-B).

A proactive strategy rewrites a query into a *more expensive* variant
whose intermediate result has higher reuse potential:

* **top-N caching** — ``topN(Q, N)`` becomes ``limit(N)`` over
  ``topN(Q, N_max)``: a bounded heap of 10 000 rows costs practically the
  same as one of N rows, and the larger result subsumes every smaller
  request;
* **cube caching with selections** — ``γFα(σ_p(c)(R))`` becomes
  ``γFα''(σ_p(c)(γ∪cFα'(R)))`` when the selection column(s) have few
  distinct values: the extended aggregate (the "cube") is predicate-free
  and shared by all queries that differ only in ``p(c)``;
* **cube caching with binning** — a range predicate over a
  high-cardinality ordered column is decomposed into bin-contained and
  residual parts using a catalog :class:`~repro.columnar.BinningSpec`
  (e.g. calendar years); the contained part triggers cube caching on the
  bin column, the residual is recomputed, and a final re-aggregation
  unions the two.

The aggregate decomposition follows the standard rules: ``sum -> sum of
sums``, ``count -> sum of counts``, ``min/max -> min/max``, ``avg ->
sum(sum)/sum(count)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..columnar.catalog import BinningSpec, Catalog, CatalogView
from ..expr.analysis import (NEG_INF, POS_INF, conjoin, profile_predicate,
                             split_conjuncts)
from ..expr.nodes import AggSpec, And, Arith, Cmp, Col, Expr, Func, Lit
from ..columnar import types as t
from ..plan.logical import (Aggregate, Limit, PlanNode, Project, Scan,
                            Select, TopN, UnionAll, map_plan)
from .config import RecyclerConfig

#: proactive top-N: limit used for the proactively cached topN.
PROACTIVE_TOPN_LIMIT = 10000


@dataclass
class ProactiveApplication:
    """One strategy application (for steering, traces and tests)."""

    strategy: str                 # "topn" | "cube_select" | "cube_binning"
    #: the shared subtree whose recycling potential motivated the rewrite
    #: (the inner topN / the cube aggregate) — the steering anchor.
    anchor: PlanNode | None = None


@dataclass
class ProactiveResult:
    plan: PlanNode
    applications: list[ProactiveApplication] = field(default_factory=list)


class ProactiveRewriter:
    """Applies the three proactive strategies to a logical plan.

    ``catalog`` — for the recycler, the query's pinned
    :class:`~repro.columnar.catalog.CatalogSnapshot` — holds the
    statistics and binning specs the rules read, so a concurrent DDL
    cannot steer a rewrite against tables the query will not scan."""

    def __init__(self, catalog: CatalogView, config: RecyclerConfig) -> None:
        self.catalog = catalog
        self.config = config

    def apply(self, plan: PlanNode) -> ProactiveResult:
        result = ProactiveResult(plan=plan)

        def visit(node: PlanNode, children: list[PlanNode]) -> PlanNode:
            node = node.with_children(children) \
                if any(new is not old for new, old in
                       zip(children, node.children)) else node
            rewritten = self._try_topn(node, result)
            if rewritten is not None:
                return rewritten
            rewritten = self._try_cube(node, result)
            if rewritten is not None:
                return rewritten
            return node

        result.plan = map_plan(plan, visit)
        return result

    # ------------------------------------------------------------------
    # top-N caching
    # ------------------------------------------------------------------
    def _try_topn(self, node: PlanNode,
                  result: ProactiveResult) -> PlanNode | None:
        if not isinstance(node, TopN):
            return None
        if node.limit + node.offset >= PROACTIVE_TOPN_LIMIT:
            return None
        inner = TopN(node.children[0], node.sort_keys,
                     PROACTIVE_TOPN_LIMIT, 0)
        result.applications.append(
            ProactiveApplication("topn", anchor=inner))
        return Limit(inner, node.limit, node.offset)

    # ------------------------------------------------------------------
    # cube caching (with selections / with binning)
    # ------------------------------------------------------------------
    def _try_cube(self, node: PlanNode,
                  result: ProactiveResult) -> PlanNode | None:
        if not isinstance(node, Aggregate):
            return None
        child = node.children[0]

        # Paper: Q = γFα(P(σp(c)(R))) — the selection may sit anywhere in
        # the plan P below the aggregate; search for a qualifying one.
        for select in _selects_below(node):
            rewritten = self._try_cube_on_select(node, select, result)
            if rewritten is not None:
                return rewritten
        # Binning only handles a selection directly under the aggregate
        # (the Q1 shape of Fig. 5 right).
        if isinstance(child, Select) and _decomposable(node.aggregates):
            rewritten = self._cube_with_binning(node, child)
            if rewritten is not None:
                result.applications.append(ProactiveApplication(
                    "cube_binning", anchor=_find_anchor(rewritten)))
                return rewritten
        return None

    def _try_cube_on_select(self, agg: Aggregate, select: Select,
                            result: ProactiveResult) -> PlanNode | None:
        columns = sorted(select.predicate.columns())
        if not columns:
            return None
        # The predicate must be evaluable above the aggregate's input.
        input_names = set(
            agg.children[0].output_schema(self.catalog).names)
        if not set(columns) <= input_names:
            return None
        passthrough_keys = {name for name, expr in agg.group_keys
                            if isinstance(expr, Col) and expr.name == name}
        if set(columns) <= passthrough_keys:
            # Pull-up special case (Q16 shape): the selection columns are
            # already group keys, so the selection commutes with the
            # aggregation unchanged — any aggregate function qualifies.
            rewritten = self._pull_selection_above(agg, select)
            if rewritten is not None:
                result.applications.append(ProactiveApplication(
                    "cube_select", anchor=_find_anchor(rewritten)))
            return rewritten
        if not _decomposable(agg.aggregates):
            return None
        if self._distinct_product(select, columns) is None:
            return None
        rewritten = self._cube_with_selection(agg, select, columns,
                                              select.predicate, None)
        if rewritten is not None:
            result.applications.append(ProactiveApplication(
                "cube_select", anchor=_find_anchor(rewritten)))
        return rewritten

    def _pull_selection_above(self, agg: Aggregate,
                              select: Select) -> PlanNode | None:
        source = _remove_select(agg.children[0], select)
        if source is None:
            return None
        cube = Aggregate(source, agg.group_keys, agg.aggregates)
        return Select(cube, select.predicate)

    def _distinct_product(self, select: Select,
                          columns: list[str]) -> int | None:
        """Product of distinct counts if all columns are known base-table
        columns under the threshold; None otherwise."""
        product = 1
        for column in columns:
            count = self._distinct_count(select, column)
            if count is None or count <= 0:
                return None
            product *= count
            if product > self.config.proactive_group_threshold:
                return None
        return product

    def _distinct_count(self, below: PlanNode, column: str) -> int | None:
        """Distinct count of ``column``, resolved against the scans in the
        subtree (TPC-H-style globally unique column names)."""
        for node in below.walk():
            if isinstance(node, Scan) and column in node.columns:
                count = self.catalog.distinct_count(node.table, column)
                return count if count > 0 else None
        return None

    def _cube_with_selection(self, agg: Aggregate, select: Select,
                             extra_key_columns: list[str],
                             predicate: Expr,
                             presel: Expr | None) -> PlanNode | None:
        """``γFα(σp(R))`` -> ``γFα''(σp(γ∪cFα'(R)))`` (Fig. 5 left).

        ``presel`` optionally keeps a residual predicate *below* the cube
        (used by the binning strategy for non-binned conjuncts).
        """
        source_or_none = _remove_select(agg.children[0], select)
        if source_or_none is None:
            return None
        source: PlanNode = source_or_none
        if presel is not None:
            source = Select(source, presel)
        inner_keys = [(name, expr) for name, expr in agg.group_keys]
        existing = {name for name, _ in agg.group_keys}
        for column in extra_key_columns:
            if column not in existing:
                inner_keys.append((column, Col(column)))
        partials, finalize = _decompose(agg.aggregates)
        cube = Aggregate(source, inner_keys, partials)
        filtered = Select(cube, predicate)
        return finalize(filtered, agg.group_keys)

    def _cube_with_binning(self, agg: Aggregate,
                           select: Select) -> PlanNode | None:
        """Fig. 5 right: split one range conjunct into bin-contained and
        residual parts, cube-cache the contained part, union the rest."""
        profile = profile_predicate(select.predicate)
        for column, crange in profile.ranges.items():
            if crange.values is not None:
                continue  # equality constraints are not range-binnable
            spec = self._binning_spec(select, column)
            if spec is None:
                continue
            decomposed = _decompose_range(column, crange, spec,
                                          self.catalog, select)
            if decomposed is None:
                continue
            bin_expr, contained_pred, residual_pred = decomposed
            rest = [c for c in split_conjuncts(select.predicate)
                    if column not in c.columns()]
            presel = conjoin(rest) if rest else None
            bin_name = f"__bin_{column}"
            # Contained part: cube over the bin column.
            partials, finalize = _decompose(agg.aggregates)
            inner_keys = list(agg.group_keys) + [(bin_name, bin_expr)]
            source: PlanNode = select.children[0]
            if presel is not None:
                source = Select(source, presel)
            cube = Aggregate(source, inner_keys, partials)
            filtered_cube = Select(
                cube, contained_pred.rename({column: bin_name}))
            if residual_pred is None:
                # The whole range is bin-aligned: no residual recompute.
                return finalize(filtered_cube, agg.group_keys)
            contained = Aggregate(
                filtered_cube,
                [(name, Col(name)) for name, _ in agg.group_keys],
                _reagg_partials(partials))
            # Residual part: recompute directly with the leftover range.
            residual_conjuncts = ([presel] if presel is not None else []) \
                + [residual_pred]
            residual = Aggregate(
                Select(select.children[0], conjoin(residual_conjuncts)),
                agg.group_keys, partials)
            union = UnionAll([contained, residual])
            return finalize(union, agg.group_keys)
        return None

    def _binning_spec(self, below: PlanNode,
                      column: str) -> BinningSpec | None:
        for node in below.walk():
            if isinstance(node, Scan) and column in node.columns:
                return self.catalog.binning_for(node.table, column)
        return None


# ----------------------------------------------------------------------
# aggregate decomposition helpers
# ----------------------------------------------------------------------
_DECOMPOSABLE = ("sum", "count", "count_star", "min", "max", "avg")


def _decomposable(aggs: list[AggSpec]) -> bool:
    return all(a.func in _DECOMPOSABLE for a in aggs)


def _decompose(aggs: list[AggSpec]):
    """Split aggregates into inner partials + a finalizer.

    Returns ``(partials, finalize)`` where ``finalize(child, group_keys)``
    builds the outer re-aggregation (plus a projection when an ``avg``
    needs ``sum/count`` recombination).
    """
    partials: list[AggSpec] = []
    recipe: list[tuple] = []
    names_used: set[str] = set()

    def fresh(base: str) -> str:
        name = f"__pa_{base}"
        suffix = 0
        while name in names_used:
            suffix += 1
            name = f"__pa_{base}_{suffix}"
        names_used.add(name)
        return name

    count_partial: str | None = None

    def ensure_count() -> str:
        nonlocal count_partial
        if count_partial is None:
            count_partial = fresh("count")
            partials.append(AggSpec("count_star", None, count_partial))
        return count_partial

    for agg in aggs:
        if agg.func == "sum":
            name = fresh(agg.name)
            partials.append(AggSpec("sum", agg.arg, name))
            recipe.append(("sum", agg.name, name))
        elif agg.func in ("count", "count_star"):
            recipe.append(("count", agg.name, ensure_count()))
        elif agg.func in ("min", "max"):
            name = fresh(agg.name)
            partials.append(AggSpec(agg.func, agg.arg, name))
            recipe.append((agg.func, agg.name, name))
        else:  # avg
            sum_name = fresh(f"{agg.name}_sum")
            partials.append(AggSpec("sum", agg.arg, sum_name))
            recipe.append(("avg", agg.name, sum_name, ensure_count()))

    def finalize(child: PlanNode,
                 group_keys: list[tuple[str, Expr]]) -> PlanNode:
        outer_keys = [(name, Col(name)) for name, _ in group_keys]
        outer_aggs: list[AggSpec] = []
        needs_project = False
        for step in recipe:
            if step[0] == "avg":
                _, out, sum_name, count_name = step
                outer_aggs.append(AggSpec("sum", Col(sum_name),
                                          f"__f_{out}_sum"))
                outer_aggs.append(AggSpec("sum", Col(count_name),
                                          f"__f_{out}_cnt"))
                needs_project = True
            else:
                kind, out, source = step
                func = "sum" if kind in ("sum", "count") else kind
                outer_aggs.append(AggSpec(func, Col(source), out))
        plan: PlanNode = Aggregate(child, outer_keys, outer_aggs)
        if needs_project:
            outputs: list[tuple[str, Expr]] = \
                [(name, Col(name)) for name, _ in group_keys]
            for step in recipe:
                if step[0] == "avg":
                    _, out, _, _ = step
                    outputs.append((out,
                                    Arith("/", Col(f"__f_{out}_sum"),
                                          Col(f"__f_{out}_cnt"))))
                else:
                    outputs.append((step[1], Col(step[1])))
            plan = Project(plan, outputs)
        return plan

    return partials, finalize


def _reagg_partials(partials: list[AggSpec]) -> list[AggSpec]:
    """Re-aggregate partial columns onto themselves (partial -> partial),
    used by the binning strategy's contained branch so both union inputs
    carry identically named partial aggregates."""
    out = []
    for partial in partials:
        func = "sum" if partial.func in ("sum", "count", "count_star") \
            else partial.func
        out.append(AggSpec(func, Col(partial.name), partial.name))
    return out


def _selects_below(agg: Aggregate):
    """Select nodes in the subtree below an aggregate, deepest first."""
    for node in agg.children[0].walk():
        if isinstance(node, Select):
            yield node


def _remove_select(root: PlanNode, target: Select) -> PlanNode | None:
    """A copy of ``root`` with ``target`` replaced by its child; ``None``
    when ``target`` does not occur in the subtree.  Only the nodes above
    ``target`` are copied."""
    if root is target:
        return target.children[0]
    children = [_remove_select(child, target) for child in root.children]
    if all(new is None for new in children):
        return None
    return root.with_children([old if new is None else new
                               for new, old in zip(children,
                                                   root.children)])


def _find_anchor(plan: PlanNode) -> PlanNode | None:
    """The shared cube aggregate inside a rewritten plan: the deepest
    Aggregate whose group keys extend the query's own (heuristically, the
    first Aggregate found bottom-up)."""
    for node in plan.walk():
        if isinstance(node, Aggregate):
            return node
    return None


# ----------------------------------------------------------------------
# range decomposition for binning
# ----------------------------------------------------------------------
def _decompose_range(column: str, crange, spec: BinningSpec,
                     catalog: Catalog, select: Select):
    """Split ``lo <= column <= hi`` into a predicate over whole bins plus
    residual day/value ranges.  Returns
    ``(bin_expr, contained_pred, residual_pred)`` or ``None`` when the
    range does not span at least one whole bin.

    ``contained_pred`` is expressed over the *bin value* (the caller
    renames the column reference onto the cube's bin output), and
    ``residual_pred`` over the original column.
    """
    bounds = _column_bounds(column, crange, catalog, select)
    if bounds is None:
        return None
    lo, hi = bounds  # inclusive value range of the selection

    if spec.kind == "year":
        bin_expr: Expr = Func("year", [Col(column)])
        lo_year = int(t.years_of([lo])[0])
        hi_year = int(t.years_of([hi])[0])
        first_full = lo_year if lo == t.first_day_of_year(lo_year) \
            else lo_year + 1
        last_full = hi_year if hi == t.first_day_of_year(hi_year + 1) - 1 \
            else hi_year - 1
        if last_full < first_full:
            return None
        contained = And([Cmp(">=", Col(column), Lit(first_full)),
                         Cmp("<=", Col(column), Lit(last_full))])
        start_full = t.first_day_of_year(first_full)
        end_full = t.first_day_of_year(last_full + 1) - 1
        residual_parts: list[Expr] = []
        if lo < start_full:
            residual_parts.append(
                And([Cmp(">=", Col(column), Lit(lo, t.DATE)),
                     Cmp("<", Col(column), Lit(start_full, t.DATE))]))
        if hi > end_full:
            residual_parts.append(
                And([Cmp(">", Col(column), Lit(end_full, t.DATE)),
                     Cmp("<=", Col(column), Lit(hi, t.DATE))]))
        residual = None if not residual_parts else (
            residual_parts[0] if len(residual_parts) == 1
            else _or_all(residual_parts))
        return bin_expr, contained, residual

    # width binning over integers
    width = spec.width
    bin_expr = Func("bin", [Col(column), Lit(width)])
    first_full = lo // width if lo % width == 0 else lo // width + 1
    last_full = (hi + 1) // width - 1
    if last_full < first_full:
        return None
    contained = And([Cmp(">=", Col(column), Lit(int(first_full))),
                     Cmp("<=", Col(column), Lit(int(last_full)))])
    residual_parts: list[Expr] = []
    if lo < first_full * width:
        residual_parts.append(
            And([Cmp(">=", Col(column), Lit(int(lo))),
                 Cmp("<", Col(column), Lit(int(first_full * width)))]))
    if hi >= (last_full + 1) * width:
        residual_parts.append(
            And([Cmp(">=", Col(column), Lit(int((last_full + 1) * width))),
                 Cmp("<=", Col(column), Lit(int(hi)))]))
    residual = None if not residual_parts else (
        residual_parts[0] if len(residual_parts) == 1
        else _or_all(residual_parts))
    return bin_expr, contained, residual


def _or_all(parts: list[Expr]) -> Expr:
    from ..expr.nodes import Or
    return Or(parts)


def _column_bounds(column: str, crange, catalog: Catalog,
                   select: Select) -> tuple[int, int] | None:
    """Inclusive integer bounds of the selection range, filling open ends
    from catalog min/max statistics."""
    lo, hi = crange.low, crange.high
    lo_inc, hi_inc = crange.low_inclusive, crange.high_inclusive
    stats_range = None
    for node in select.walk():
        if isinstance(node, Scan) and column in node.columns:
            stats_range = catalog.column_range(node.table, column)
            break
    if lo is NEG_INF:
        if stats_range is None:
            return None
        lo, lo_inc = stats_range[0], True
    if hi is POS_INF:
        if stats_range is None:
            return None
        hi, hi_inc = stats_range[1], True
    if not isinstance(lo, (int,)) or not isinstance(hi, (int,)):
        try:
            lo, hi = int(lo), int(hi)
        except (TypeError, ValueError):
            return None
    lo = lo if lo_inc else lo + 1
    hi = hi if hi_inc else hi - 1
    if hi < lo:
        return None
    return int(lo), int(hi)
