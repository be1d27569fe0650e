"""Canonicalizing plan optimizer: equivalent plans, one fingerprint.

The recycler matches plans *as bound*, so before this pass two
semantically identical queries could produce different
``plan_fingerprint``s and silently recompute + double-store:
``q.scan("t").filter(x > 1).filter(y > 2)`` vs. the single-filter
``x > 1 AND y > 2`` form, ``Lit(1)`` vs. ``Lit(1.0)``, an identity
pass-through ``Project``.  The expression layer already canonicalizes
(AND operand order, flipped comparisons); this module is the missing
plan-level half.

Design: a list of small *strategies* (the strategy-visitor pattern of
cost-based optimizers such as opteryx), each an object with a ``name``
and an ``apply(node, ctx) -> PlanNode | None`` hook, driven bottom-up
over the tree to a fixpoint.  Unlike the usual post-hoc arrangement —
optimize for execution, match on whatever falls out — the pass runs in
``Recycler.prepare`` *before* fingerprinting and Algorithm-1 matching,
so the canonical form is the recycler graph's vocabulary: every shape
in an equivalence class maps to one graph subtree, one lock stripe, and
one cached entry.

Canonical-form invariants (what the strategies guarantee on output):

* no ``Select`` whose child is a ``Select``, except the sargable/
  residual split below;
* over a leaf, a conjunction with both sargable (column-vs-literal
  range, equality, IN) and residual conjuncts is split into an inner
  sargable ``Select`` and an outer residual ``Select`` — queries that
  share the range part but differ in the residual then share the inner
  graph node (and feed the subsumption index a pure-range node);
* predicate literals that are integral floats are ``INT64``;
* no identity ``Project``; single-source predicates sit below
  ``Project`` (pass-through columns only) and ``Join``;
* no ``Limit`` over ``Limit``/``Sort``/``TopN``;
* ``Join`` key pairs and same-schema ``UnionAll`` inputs are in a
  deterministic order;
* scan column order is base-table order wherever it is not visible in
  the root schema (matching keys scans on the ordered column tuple).

Every rewrite is *executable* semantics-preserving, not merely
fingerprint-preserving: filters commute with projection and with the
order-stable hash join, and ``TopN`` uses the same stable ``lexsort``
as ``Sort`` — so the rewritten plan returns byte-identical rows and the
recycler's serial-vs-concurrent identity checks keep holding.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field

from ..columnar import types as t
from ..columnar.catalog import CatalogView
from ..expr import nodes as e
from ..expr.analysis import conjoin, is_sargable_conjunct, split_conjuncts
from .logical import (Join, Limit, PlanNode, Project, Scan, Select, Sort,
                      TableFunctionScan, TopN, UnionAll, plan_fingerprint)

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


@dataclass
class OptimizeContext:
    """Per-``optimize()`` state handed to every strategy."""

    catalog: CatalogView
    counts: Counter = field(default_factory=Counter)
    #: the plan is a statement template's, its literals tagged with
    #: slots: the two rules whose output can depend on a slot's value
    #: (conjunct order, ``UNION ALL`` input order) check whether it did
    template: bool = False
    #: set by that check — the output is right for this text only, and
    #: every other text of the template is optimized on its own
    value_dependent: bool = False


def normalizes(value: float) -> bool:
    """Whether :class:`NormalizeLiterals` types a FLOAT64 literal of
    ``value`` INT64: integral and within int64."""
    return value.is_integer() and _INT64_MIN <= value <= _INT64_MAX


def _sorted_conjuncts(conjuncts: list[e.Expr],
                      ctx: OptimizeContext) -> list[e.Expr]:
    """Deterministic conjunct order (``repr`` of the canonical key —
    plain tuple comparison can raise on heterogeneous literal types)."""
    ordered = sorted(conjuncts, key=lambda c: repr(c.key()))
    if ctx.template and not ctx.value_dependent \
            and not _order_fixed(ordered):
        ctx.value_dependent = True
    return ordered


# ----------------------------------------------------------------------
# literal independence of a statement template
# ----------------------------------------------------------------------
class _ValueRead(Exception):
    """Canonicalizing a key compared a slot's value."""


#: what a :class:`_Placeholder` prints as — a character the ``repr`` of
#: no real value contains (``repr`` escapes it inside strings)
_MARK = "\x00"


class _Placeholder:
    """A slot's value, unknown: it prints as :data:`_MARK`, and comparing
    it with anything but itself raises :class:`_ValueRead`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return _MARK

    def __neg__(self) -> "_Placeholder":
        return _Placeholder()

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        raise _ValueRead

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __lt__(self, other: object) -> bool:
        raise _ValueRead

    __le__ = __gt__ = __ge__ = __lt__
    __hash__ = object.__hash__


class _Placeholders:
    """The ``values`` of ``substituted(values)`` that put a fresh
    :class:`_Placeholder` in every slot."""

    def __getitem__(self, slot: int) -> _Placeholder:
        return _Placeholder()


_PLACEHOLDERS = _Placeholders()


def _order_fixed(ordered: list[e.Expr]) -> bool:
    """Whether every instance of a template sorts its conjuncts as they
    sort here (``ordered``, by ``repr`` of the key): computing the keys
    with every slot a placeholder compares no slot's value, and each
    adjacent pair's keys first differ before the first place a slot's
    value takes in either — the characters up to there, and the one
    that decides, are then the same in every instance."""
    if len(ordered) < 2:
        return True
    try:
        keys = [repr(c.substituted(_PLACEHOLDERS).key()) for c in ordered]
    except _ValueRead:
        return False
    for a, b in zip(keys, keys[1:]):
        decided = len(os.path.commonprefix([a, b])) + 1
        if _MARK in a[:decided] or _MARK in b[:decided]:
            return False
    return True


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
class Strategy:
    """One rewrite rule: return the replacement node, or ``None``."""

    name = "abstract"

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        raise NotImplementedError


class NormalizeLiterals(Strategy):
    """``x > 1.0`` and ``x > 1`` must share a key: integral-float
    literals compared *directly* against anything become ``INT64``.

    Only direct ``Cmp`` operands are touched — a literal inside
    arithmetic (``x + 1.0``) changes the expression's dtype and, for
    int64 values beyond 2**53, its result, so it stays as written.

    A rewritten literal keeps its slot (and substitutes as
    ``int(value)``): whether a value is rewritten (:func:`normalizes`)
    is part of the key a text finds its statement template under.
    """

    name = "normalize_literals"

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        if isinstance(node, Select):
            predicate = self._boolean(node.predicate)
            if predicate is not None:
                return Select(node.child, predicate)
        elif isinstance(node, Join) and node.extra is not None:
            extra = self._boolean(node.extra)
            if extra is not None:
                return Join(node.left, node.right, node.kind,
                            node.left_keys, node.right_keys, extra)
        return None

    def _boolean(self, expr: e.Expr) -> e.Expr | None:
        """Rewrite inside the boolean skeleton; ``None`` = unchanged."""
        if isinstance(expr, e.And) or isinstance(expr, e.Or):
            args = [self._boolean(a) for a in expr.args]
            if all(a is None for a in args):
                return None
            merged = [n if n is not None else o
                      for n, o in zip(args, expr.args)]
            return type(expr)(merged)
        if isinstance(expr, e.Not):
            arg = self._boolean(expr.arg)
            return e.Not(arg) if arg is not None else None
        if isinstance(expr, e.Cmp):
            left = self._literal(expr.left)
            right = self._literal(expr.right)
            if left is None and right is None:
                return None
            return e.Cmp(expr.op, left or expr.left, right or expr.right)
        return None

    @staticmethod
    def _literal(expr: e.Expr) -> e.Lit | None:
        if not isinstance(expr, e.Lit) or expr._dtype is not t.FLOAT64:
            return None
        value = expr.value
        if not (isinstance(value, float) and normalizes(value)):
            return None
        return e.Lit(int(value), slot=expr.slot)


class MergeSelects(Strategy):
    """Stacked filters fold into one sorted-conjunct AND — the shape
    ``WHERE a AND b`` binds to (``And.key`` sorts, so the merged node's
    fingerprint is order-insensitive by construction)."""

    name = "merge_selects"

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        if not (isinstance(node, Select) and isinstance(node.child,
                                                        Select)):
            return None
        conjuncts = split_conjuncts(node.child.predicate) \
            + split_conjuncts(node.predicate)
        return Select(node.child.child,
                      conjoin(_sorted_conjuncts(conjuncts, ctx)))


class ElideIdentityProject(Strategy):
    """A ``Project`` that passes every child column through unchanged,
    in order, computes nothing — drop it."""

    name = "elide_identity_project"

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        if not isinstance(node, Project):
            return None
        if not all(isinstance(x, e.Col) and x.name == n
                   for n, x in node.outputs):
            return None
        child_names = node.child.output_schema(ctx.catalog).names
        if [n for n, _ in node.outputs] != list(child_names):
            return None
        return node.child


class PushdownSelectProject(Strategy):
    """``Select(Project)`` commutes to ``Project(Select)`` when the
    predicate only reads pass-through columns (renames are followed);
    filters then sit at the canonical below-projection position and
    projection expressions run on fewer rows."""

    name = "pushdown_project"

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        if not (isinstance(node, Select) and isinstance(node.child,
                                                        Project)):
            return None
        project = node.child
        to_input = {name: expr.name for name, expr in project.outputs
                    if isinstance(expr, e.Col)}
        columns = node.predicate.columns()
        if not columns <= to_input.keys():
            return None
        predicate = node.predicate.rename(
            {c: to_input[c] for c in columns})
        return Project(Select(project.child, predicate),
                       project.outputs)


class PushdownSelectJoin(Strategy):
    """Single-side conjuncts of a ``Select`` above a ``Join`` move into
    the *preserved* input — the side whose rows survive the join
    unchanged: the left side for inner/left/semi/anti, the right side
    for inner/right.  Pushing into a padded (non-preserved) side of an
    outer join would change which rows get padded, so right-side
    conjuncts stay above left joins, left-side conjuncts stay above
    right joins, and nothing moves below a full outer join.  Multi-side
    and constant conjuncts stay above."""

    name = "pushdown_join"

    #: per join kind, which sides a single-side conjunct may move into.
    _LEFT_SAFE = ("inner", "left", "semi", "anti")
    _RIGHT_SAFE = ("inner", "right")

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        if not (isinstance(node, Select) and isinstance(node.child,
                                                        Join)):
            return None
        join = node.child
        left_cols = set(join.left.output_schema(ctx.catalog).names)
        right_cols = set(join.right.output_schema(ctx.catalog).names)
        to_left: list[e.Expr] = []
        to_right: list[e.Expr] = []
        kept: list[e.Expr] = []
        for conjunct in split_conjuncts(node.predicate):
            columns = conjunct.columns()
            if columns and columns <= left_cols \
                    and join.kind in self._LEFT_SAFE:
                to_left.append(conjunct)
            elif columns and columns <= right_cols \
                    and join.kind in self._RIGHT_SAFE:
                to_right.append(conjunct)
            else:
                kept.append(conjunct)
        if not to_left and not to_right:
            return None
        left = Select(join.left,
                      conjoin(_sorted_conjuncts(to_left, ctx))) \
            if to_left else join.left
        right = Select(join.right,
                       conjoin(_sorted_conjuncts(to_right, ctx))) \
            if to_right else join.right
        pushed = Join(left, right, join.kind, join.left_keys,
                      join.right_keys, join.extra)
        if kept:
            return Select(pushed, conjoin(_sorted_conjuncts(kept, ctx)))
        return pushed


class CollapseLimits(Strategy):
    """``Limit`` over ``Limit``/``TopN`` folds into one operator with
    the composed offset and the tighter effective limit."""

    name = "collapse_limits"

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        if not isinstance(node, Limit):
            return None
        child = node.child
        if isinstance(child, (Limit, TopN)):
            available = max(child.limit - node.offset, 0)
            limit = min(available, node.limit)
            offset = child.offset + node.offset
            if isinstance(child, Limit):
                return Limit(child.child, limit, offset)
            if limit > 0:
                return TopN(child.child, child.sort_keys, limit, offset)
            return Limit(child.child, 0)  # provably empty: drop the sort
        return None


class FuseLimitSort(Strategy):
    """``Limit(Sort)`` is the paper's ``topN`` written longhand; fuse
    it so builder plans meet SQL ``ORDER BY ... LIMIT`` plans in the
    graph.  Safe byte-for-byte: ``TopNOp`` ranks with the same stable
    ``lexsort`` as ``SortOp``."""

    name = "fuse_limit_sort"

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        if not (isinstance(node, Limit) and isinstance(node.child,
                                                       Sort)):
            return None
        if node.limit <= 0:
            return Limit(node.child.child, 0)  # empty: drop the sort
        return TopN(node.child.child, node.child.sort_keys, node.limit,
                    node.offset)


class OrderJoinKeys(Strategy):
    """Multi-key equi-joins are AND-commutative in their key pairs;
    sort the ``(left, right)`` pairs so key order never splits a
    fingerprint.  (Children are not swapped — output schema is
    ``left ++ right``.)"""

    name = "order_join_keys"

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        if not isinstance(node, Join) or len(node.left_keys) < 2:
            return None
        pairs = list(zip(node.left_keys, node.right_keys))
        ordered = sorted(pairs)
        if ordered == pairs:
            return None
        return Join(node.left, node.right, node.kind,
                    [lk for lk, _ in ordered], [rk for _, rk in ordered],
                    node.extra)


class OrderUnionInputs(Strategy):
    """``UNION ALL`` inputs with *identical* output schemas (names and
    types — names come from child 0, so anything else would relabel
    columns) are sorted by fingerprint.  Row order changes, but
    deterministically and identically for every query in the
    equivalence class, which is what result reuse requires.

    Fingerprints hold literal values: over a statement template's
    inputs with a slot in them, the order is taken as the value's."""

    name = "order_union_inputs"

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        if not isinstance(node, UnionAll):
            return None
        schemas = [c.output_schema(ctx.catalog) for c in node.children]
        first = schemas[0]
        if any(s.names != first.names or s.types != first.types
               for s in schemas[1:]):
            return None
        if ctx.template and node.substituted(_PLACEHOLDERS) is not node:
            ctx.value_dependent = True
        keyed = [(repr(plan_fingerprint(c)), i, c)
                 for i, c in enumerate(node.children)]
        ordered = sorted(keyed)
        if [i for _, i, _ in ordered] == list(range(len(keyed))):
            return None
        return UnionAll([c for _, _, c in ordered])


class SplitSargableSelect(Strategy):
    """The inverse of :class:`MergeSelects`, applied once as a final
    pass: over a leaf, separate sargable conjuncts (column-vs-literal
    ranges/equalities/IN — what ``expr.analysis`` can profile) from
    residual ones (LIKE, OR, functions, multi-column).  Queries sharing
    the range part but differing in the residual share the inner graph
    node, and the subsumption index sees a pure-range ``Select``."""

    name = "split_sargable_select"

    def apply(self, node: PlanNode,
              ctx: OptimizeContext) -> PlanNode | None:
        if not (isinstance(node, Select)
                and isinstance(node.child, (Scan, TableFunctionScan))):
            return None
        conjuncts = split_conjuncts(node.predicate)
        sargable = [c for c in conjuncts if is_sargable_conjunct(c)]
        residual = [c for c in conjuncts if not is_sargable_conjunct(c)]
        if not sargable or not residual:
            return None
        inner = Select(node.child,
                       conjoin(_sorted_conjuncts(sargable, ctx)))
        return Select(inner, conjoin(_sorted_conjuncts(residual, ctx)))


#: fixpoint strategies, in application order per node.
DEFAULT_STRATEGIES: tuple[Strategy, ...] = (
    NormalizeLiterals(),
    MergeSelects(),
    ElideIdentityProject(),
    PushdownSelectProject(),
    PushdownSelectJoin(),
    CollapseLimits(),
    FuseLimitSort(),
    OrderJoinKeys(),
    OrderUnionInputs(),
)

#: applied once, bottom-up, *after* the fixpoint: the split must not
#: fight the merge inside the loop.
FINAL_STRATEGIES: tuple[Strategy, ...] = (
    SplitSargableSelect(),
)


class PlanOptimizer:
    """Drive the strategies bottom-up to a fixpoint, then apply the
    final (non-confluent-with-merge) pass once.

    Stateless and thread-safe: all mutable state lives in the
    per-call :class:`OptimizeContext`.
    """

    #: whole-tree iterations; rewrites that surface new opportunities a
    #: level apart (pushdown -> merge) converge in 2-3, this is slack.
    MAX_PASSES = 8
    #: per-node strategy cycles within one pass.
    MAX_NODE_SPINS = 8

    def __init__(self, strategies: tuple[Strategy, ...] | None = None,
                 final_strategies: tuple[Strategy, ...] | None = None
                 ) -> None:
        self.strategies = strategies if strategies is not None \
            else DEFAULT_STRATEGIES
        self.final_strategies = final_strategies \
            if final_strategies is not None else FINAL_STRATEGIES

    def optimize(self, plan: PlanNode, catalog: CatalogView,
                 ctx: OptimizeContext | None = None
                 ) -> tuple[PlanNode, Counter]:
        """Return ``(canonical plan, per-strategy rewrite counts)``.

        Untouched subtrees keep their identity (``is``), so a plan
        already in canonical form passes through unchanged.

        ``ctx`` (over ``catalog``) is for a caller that reads more back
        than the counts: a statement template's plan is optimized under
        ``OptimizeContext(catalog, template=True)``, and where no rule
        set ``value_dependent``, substituting another text's literals
        into the output gives the plan this method returns for that
        text — the same ``render_plan``, and the same counts.
        """
        if ctx is None:
            ctx = OptimizeContext(catalog)
        current = self._order_scans(plan, ctx, order_visible=True)
        for _ in range(self.MAX_PASSES):
            rewritten = self._pass(current, ctx, self.strategies)
            if rewritten is current:
                break
            current = rewritten
        current = self._pass(current, ctx, self.final_strategies)
        return current, ctx.counts

    def _order_scans(self, node: PlanNode, ctx: OptimizeContext,
                     order_visible: bool) -> PlanNode:
        """Canonicalize scan column order to base-table order wherever
        the order is not visible in the plan's root schema.

        Matching keys scans on their *ordered* column tuple (the
        positional output pairing above requires it — see
        ``recycler.matching._output_mapping``), so ``scan(t [k, g])``
        and ``scan(t [g, k])`` are different graph leaves as bound.
        Every operator that consumes columns does so *by name*; only a
        pure pass-through chain up to the root makes scan order
        observable.  Below a ``Project``/``Aggregate`` the order is
        free, and one canonical spelling shares one subtree.  Run
        top-down once: no fixpoint strategy introduces or reorders
        scans.  ``UnionAll`` children must stay schema-aligned, so they
        are conservatively treated as order-visible.
        """
        if isinstance(node, Scan):
            if order_visible:
                return node
            base = ctx.catalog.table_entry(node.table).table.schema.names
            wanted = set(node.columns)
            ordered = [name for name in base if name in wanted]
            if ordered == node.columns:
                return node
            ctx.counts["order_scan_columns"] += 1
            return Scan(node.table, ordered)
        if not node.children:
            return node
        if isinstance(node, UnionAll):
            child_visible = True
        else:
            child_visible = order_visible and not node.defines_output_order
        new_children = [self._order_scans(c, ctx, child_visible)
                        for c in node.children]
        if all(new is old for new, old in
               zip(new_children, node.children)):
            return node
        return node.with_children(new_children)

    def _pass(self, node: PlanNode, ctx: OptimizeContext,
              strategies: tuple[Strategy, ...]) -> PlanNode:
        new_children = [self._pass(c, ctx, strategies)
                        for c in node.children]
        if any(new is not old for new, old in
               zip(new_children, node.children)):
            node = node.with_children(new_children)
        for _ in range(self.MAX_NODE_SPINS):
            progressed = False
            for strategy in strategies:
                replacement = strategy.apply(node, ctx)
                if replacement is not None:
                    ctx.counts[strategy.name] += 1
                    node = replacement
                    progressed = True
            if not progressed:
                break
        return node
