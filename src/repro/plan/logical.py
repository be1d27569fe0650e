"""Logical query plans.

A plan is a tree of :class:`PlanNode`.  The recycler graph stores *copies*
of these nodes (with graph-unique column names), so every node supports:

* ``params_key(mapping)`` — a canonical, hashable identity of the operator
  *parameters* with input column names translated through a query->graph
  name mapping and **assigned output names excluded** (two queries that
  alias the same aggregate differently must still match; the paper's name
  mapping then records alias -> graph-name pairs);
* ``assigned_names()`` — output names this node newly introduces, in a
  canonical order (positionally matched against a graph node's assigned
  names to extend the mapping);
* ``hashkey()`` — a coarse, mapping-independent key used to index matching
  candidates (paper Section III-A);
* ``signature()`` — a 64-bit column bitmask used to prune candidates;
* ``remapped(input_mapping, assigned_mapping)`` — the copy the graph keeps;
* ``substituted(values)`` — the plan another text of the same statement
  template binds to: slot-tagged literals (see
  :func:`repro.expr.nodes.slot_value`) take their values from ``values``.

Output schemas are resolved lazily against a catalog via
:func:`output_schema`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, Sequence

from ..columnar.catalog import Catalog
from ..columnar.table import Schema
from ..errors import PlanError
from ..expr.nodes import (AggSpec, Col, Expr, all_substituted,
                          skeleton_of, slot_values)

NameMapping = Mapping[str, str]


# Bounded: graph-assigned names (``x@q17``) grow with the query id, so
# an unbounded memo would grow for the life of a server.
@lru_cache(maxsize=65536)
def _sig_bit(name: str) -> int:
    # Stable across processes (hash() is salted; use a simple FNV-1a).
    h = 2166136261
    for ch in name.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return 1 << (h % 64)


def signature_of(names: Sequence[str]) -> int:
    """Column-set bitmask (paper: one bit per column)."""
    sig = 0
    for name in names:
        sig |= _sig_bit(name)
    return sig


class PlanNode:
    """Base class for logical operators."""

    op_name = "abstract"

    #: True when ``params_key`` pins the node's output column order
    #: (Project/Aggregate list their outputs explicitly).  False for
    #: pass-through operators whose output order is inherited from the
    #: child — for those, positional output pairing during matching is
    #: unsound (a scan leaf matches with its column set *unordered*, so
    #: two matched pass-through nodes may emit the same columns in
    #: different orders) and names must be mapped through the child
    #: mapping instead.
    defines_output_order = False

    def __init__(self, children: Sequence["PlanNode"]) -> None:
        self.children: list[PlanNode] = list(children)
        self._schema_cache: Schema | None = None
        #: memo of :func:`repro.recycler.striping.plan_fingerprint` —
        #: like the schema, fixed once the (immutable) tree is built.
        self._fingerprint_cache: int | None = None
        #: memos of :meth:`input_columns` and :meth:`unmapped_keys`, and
        #: whether :meth:`substituted` leaves this node's own parameters
        #: as they are
        self._columns_cache: frozenset[str] | None = None
        self._keys_cache: tuple[tuple, tuple, int] | None = None
        self._fixed_params: bool | None = None

    # -- structural interface -------------------------------------------
    def output_schema(self, catalog: Catalog) -> Schema:
        """The node's output schema (memoized).

        Plan nodes are structurally immutable once built, and a plan is
        bound against one catalog, so the schema is computed once; deep
        plans would otherwise pay O(depth^2) recomputation during
        matching and validation.
        """
        if self._schema_cache is None:
            self._schema_cache = self._compute_schema(catalog)
        return self._schema_cache

    def _compute_schema(self, catalog: Catalog) -> Schema:
        raise NotImplementedError

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        raise NotImplementedError

    def assigned_names(self) -> list[str]:
        """Output names newly introduced by this node (canonical order)."""
        return []

    def input_columns(self) -> frozenset[str]:
        """Input column names this node's parameters reference (memoized
        like the schema)."""
        columns = self._columns_cache
        if columns is None:
            columns = self._columns_cache = self._input_columns()
        return columns

    def _input_columns(self) -> frozenset[str]:
        return frozenset()

    def hashkey(self) -> tuple:
        """Coarse mapping-independent candidate-index key."""
        return (self.op_name, len(self.children))

    def hashkey_of(self, params: tuple) -> tuple:
        """:meth:`hashkey`, given that ``params`` is ``params_key()``:
        read off it where the hash key is a skeleton of the same
        expression keys, instead of walking the expressions again."""
        return self.hashkey()

    def signature(self, mapping: NameMapping | None = None) -> int:
        mapping = mapping or {}
        return signature_of([mapping.get(c, c)
                             for c in self.input_columns()])

    def unmapped_keys(self) -> tuple[tuple, tuple, int]:
        """``(params_key(), hashkey(), signature())`` — the recycler's
        matching keys under a name mapping that renames none of the
        input columns; one walk of the expressions, memoized."""
        keys = self._keys_cache
        if keys is None:
            params = self.params_key()
            keys = self._keys_cache = (params, self.hashkey_of(params),
                                       self.signature())
        return keys

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence["PlanNode"]) -> "PlanNode":
        """Copy with inputs renamed and assigned outputs renamed."""
        raise NotImplementedError

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """Copy with replaced children, parameters unchanged."""
        return self.remapped({}, {}, children)

    def substituted(self, values: Sequence[object]) -> "PlanNode":
        """The plan with every slot-tagged literal taking its slot's
        value from ``values``.  Only nodes with such a literal in or
        beneath them are rebuilt, through their constructors; any other
        subtree is shared with this plan, memoized schema and
        fingerprint included.  A rebuilt node keeps this one's schema and
        input columns — a slot's value changes, never its type or a
        column it reads — and, if its own parameters hold no tagged
        literal (it was rebuilt only because a child was), its
        :meth:`unmapped_keys` too."""
        children = [child.substituted(values) for child in self.children]
        if all(new is old for new, old in zip(children, self.children)):
            children = self.children
        node = self._substituted(values, children)
        if node is self:
            return node
        node._schema_cache = self._schema_cache
        node._columns_cache = self.input_columns()
        if self._keys_cache is not None and \
                children is not self.children and \
                self._params_fixed(values):
            node._keys_cache = self._keys_cache
        return node

    def _params_fixed(self, values: Sequence[object]) -> bool:
        """Whether this node's own parameters hold no tagged literal —
        a property of the plan, not of ``values`` (memoized)."""
        fixed = self._fixed_params
        if fixed is None:
            fixed = self._fixed_params = \
                self._substituted(values, self.children) is self
        return fixed

    def _substituted(self, values: Sequence[object],
                     children: "list[PlanNode]") -> "PlanNode":
        """This node over ``children`` with its own parameters
        substituted; ``self`` when ``children`` are its own and the
        parameters hold no tagged literal."""
        if children is self.children:
            return self
        return self.with_children(children)

    # -- traversal helpers ----------------------------------------------
    def walk(self):
        """Yield every node, children before parents (post-order)."""
        for child in self.children:
            yield from child.walk()
        yield self

    def count_nodes(self) -> int:
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return render_plan(self)


def _named_substituted(named: Sequence[tuple[str, Expr]],
                       values: Sequence[object]
                       ) -> "list[tuple[str, Expr]] | None":
    """``(name, expression)`` pairs with the expressions substituted,
    or ``None`` when none of them changed."""
    exprs = all_substituted([expr for _, expr in named], values)
    if exprs is None:
        return None
    return [(name, expr) for (name, _), expr in zip(named, exprs)]


# ----------------------------------------------------------------------
# leaves
# ----------------------------------------------------------------------
class Scan(PlanNode):
    """A base-table scan projecting a fixed column subset."""

    op_name = "scan"

    def __init__(self, table: str, columns: Sequence[str]) -> None:
        super().__init__([])
        if not columns:
            raise PlanError(f"scan of {table!r} must name columns")
        self.table = table.lower()
        self.columns = list(columns)

    def _compute_schema(self, catalog: Catalog) -> Schema:
        base = catalog.table_entry(self.table).table.schema
        return base.select(self.columns)

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        # Base-table column names are shared vocabulary between query and
        # graph; no mapping applies to a leaf (paper: leaves create the
        # initial mapping).  Column ORDER is part of the key: matching
        # pairs output names positionally, so two scans may only unify
        # when they emit identical columns in identical order.  The plan
        # optimizer canonicalizes scan order wherever it is not visible
        # in the root schema, so equivalent spellings still share.
        return ("scan", self.table, tuple(self.columns))

    def _input_columns(self) -> frozenset[str]:
        return frozenset(self.columns)

    def hashkey(self) -> tuple:
        return ("scan", self.table)

    def signature(self, mapping: NameMapping | None = None) -> int:
        return signature_of(self.columns)

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "Scan":
        return Scan(self.table, self.columns)


class TableFunctionScan(PlanNode):
    """A leaf produced by a catalog-registered table function."""

    op_name = "table_function"

    def __init__(self, function: str, args: Sequence[object],
                 slots: Sequence[int | None] | None = None) -> None:
        super().__init__([])
        self.function = function.lower()
        self.args = tuple(args)
        #: per argument, the slot it came from (as ``Lit.slot``);
        #: ``None`` when no argument is tagged
        self.slots = tuple(slots) if slots is not None else None

    def _compute_schema(self, catalog: Catalog) -> Schema:
        return catalog.function_entry(self.function).schema

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        return ("table_function", self.function, self.args)

    def hashkey(self) -> tuple:
        return ("table_function", self.function)

    def signature(self, mapping: NameMapping | None = None) -> int:
        return signature_of([self.function])

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "TableFunctionScan":
        return TableFunctionScan(self.function, self.args)

    def _substituted(self, values: Sequence[object],
                     children: list[PlanNode]) -> "TableFunctionScan":
        if self.slots is None:
            return self
        return TableFunctionScan(
            self.function, slot_values(self.args, self.slots, values))


# ----------------------------------------------------------------------
# unary operators
# ----------------------------------------------------------------------
class Select(PlanNode):
    """Filter rows by a boolean predicate."""

    op_name = "select"

    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        super().__init__([child])
        self.predicate = predicate

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _compute_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        return ("select", self.predicate.key(mapping))

    def _input_columns(self) -> frozenset[str]:
        return self.predicate.columns()

    def hashkey(self) -> tuple:
        return ("select", self.predicate.skeleton())

    def hashkey_of(self, params: tuple) -> tuple:
        return ("select", skeleton_of(params[1]))

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "Select":
        return Select(children[0], self.predicate.rename(input_mapping))

    def _substituted(self, values: Sequence[object],
                     children: list[PlanNode]) -> "Select":
        predicate = self.predicate.substituted(values)
        if predicate is self.predicate and children is self.children:
            return self
        return Select(children[0], predicate)


class Project(PlanNode):
    """Compute named output expressions (projection + derivation)."""

    op_name = "project"
    defines_output_order = True

    def __init__(self, child: PlanNode,
                 outputs: Sequence[tuple[str, Expr]]) -> None:
        super().__init__([child])
        if not outputs:
            raise PlanError("projection must produce at least one column")
        names = [n for n, _ in outputs]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate projection names: {names}")
        self.outputs = [(n, e) for n, e in outputs]

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _compute_schema(self, catalog: Catalog) -> Schema:
        child_schema = self.child.output_schema(catalog)
        return Schema([n for n, _ in self.outputs],
                      [e.dtype(child_schema) for _, e in self.outputs])

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        return ("project", tuple(e.key(mapping) for _, e in self.outputs))

    def assigned_names(self) -> list[str]:
        return [n for n, e in self.outputs
                if not (isinstance(e, Col) and e.name == n)]

    def _input_columns(self) -> frozenset[str]:
        out: set[str] = set()
        for _, e in self.outputs:
            out |= e.columns()
        return frozenset(out)

    def hashkey(self) -> tuple:
        return ("project", tuple(e.skeleton() for _, e in self.outputs))

    def hashkey_of(self, params: tuple) -> tuple:
        return ("project", tuple(skeleton_of(key) for key in params[1]))

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "Project":
        outputs = []
        for name, expr in self.outputs:
            is_passthrough = isinstance(expr, Col) and expr.name == name
            new_expr = expr.rename(input_mapping)
            if is_passthrough:
                new_name = input_mapping.get(name, name)
            else:
                new_name = assigned_mapping.get(name, name)
            outputs.append((new_name, new_expr))
        return Project(children[0], outputs)

    def _substituted(self, values: Sequence[object],
                     children: list[PlanNode]) -> "Project":
        outputs = _named_substituted(self.outputs, values)
        if outputs is None and children is self.children:
            return self
        return Project(children[0], outputs or self.outputs)


class Aggregate(PlanNode):
    """Hash GROUP BY with a list of aggregates.

    ``group_keys`` is a list of ``(output_name, expression)`` pairs so that
    grouping by computed expressions (``year(o_orderdate)``) is first-class
    — the proactive binning rule depends on that.
    """

    op_name = "aggregate"
    defines_output_order = True

    def __init__(self, child: PlanNode,
                 group_keys: Sequence[tuple[str, Expr]],
                 aggregates: Sequence[AggSpec]) -> None:
        super().__init__([child])
        names = [n for n, _ in group_keys] + [a.name for a in aggregates]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate aggregate output names: {names}")
        if not aggregates and not group_keys:
            raise PlanError("aggregate must group or aggregate something")
        self.group_keys = [(n, e) for n, e in group_keys]
        self.aggregates = list(aggregates)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _compute_schema(self, catalog: Catalog) -> Schema:
        child_schema = self.child.output_schema(catalog)
        names = [n for n, _ in self.group_keys]
        dtypes = [e.dtype(child_schema) for _, e in self.group_keys]
        for agg in self.aggregates:
            names.append(agg.name)
            dtypes.append(agg.dtype(child_schema))
        return Schema(names, dtypes)

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        return ("aggregate",
                tuple(e.key(mapping) for _, e in self.group_keys),
                tuple(a.key(mapping) for a in self.aggregates))

    def assigned_names(self) -> list[str]:
        new = [n for n, e in self.group_keys
               if not (isinstance(e, Col) and e.name == n)]
        new.extend(a.name for a in self.aggregates)
        return new

    def _input_columns(self) -> frozenset[str]:
        out: set[str] = set()
        for _, e in self.group_keys:
            out |= e.columns()
        for a in self.aggregates:
            if a.arg is not None:
                out |= a.arg.columns()
        return frozenset(out)

    def hashkey(self) -> tuple:
        return ("aggregate", len(self.group_keys),
                tuple(a.func for a in self.aggregates))

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "Aggregate":
        group_keys = []
        for name, expr in self.group_keys:
            is_passthrough = isinstance(expr, Col) and expr.name == name
            new_expr = expr.rename(input_mapping)
            if is_passthrough:
                new_name = input_mapping.get(name, name)
            else:
                new_name = assigned_mapping.get(name, name)
            group_keys.append((new_name, new_expr))
        aggregates = [
            AggSpec(a.func,
                    a.arg.rename(input_mapping) if a.arg is not None else
                    None,
                    assigned_mapping.get(a.name, a.name))
            for a in self.aggregates
        ]
        return Aggregate(children[0], group_keys, aggregates)

    def _substituted(self, values: Sequence[object],
                     children: list[PlanNode]) -> "Aggregate":
        group_keys = _named_substituted(self.group_keys, values)
        aggregates = all_substituted(self.aggregates, values)
        if group_keys is None and aggregates is None \
                and children is self.children:
            return self
        return Aggregate(children[0], group_keys or self.group_keys,
                         aggregates or self.aggregates)


class TopN(PlanNode):
    """Heap-based ORDER BY ... LIMIT N (paper's ``topN`` operator)."""

    op_name = "topn"

    def __init__(self, child: PlanNode,
                 sort_keys: Sequence[tuple[str, bool]],
                 limit: int, offset: int = 0) -> None:
        super().__init__([child])
        if limit <= 0:
            raise PlanError("topN limit must be positive")
        if offset < 0:
            raise PlanError("topN offset must be non-negative")
        self.sort_keys = [(c, bool(asc)) for c, asc in sort_keys]
        self.limit = int(limit)
        self.offset = int(offset)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _compute_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        mapping = mapping or {}
        return ("topn",
                tuple((mapping.get(c, c), asc) for c, asc in self.sort_keys),
                self.limit, self.offset)

    def _input_columns(self) -> frozenset[str]:
        return frozenset(c for c, _ in self.sort_keys)

    def hashkey(self) -> tuple:
        return ("topn", len(self.sort_keys), self.limit, self.offset)

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "TopN":
        keys = [(input_mapping.get(c, c), asc) for c, asc in self.sort_keys]
        return TopN(children[0], keys, self.limit, self.offset)


class Sort(PlanNode):
    """Full sort (blocking)."""

    op_name = "sort"

    def __init__(self, child: PlanNode,
                 sort_keys: Sequence[tuple[str, bool]]) -> None:
        super().__init__([child])
        if not sort_keys:
            raise PlanError("sort requires at least one key")
        self.sort_keys = [(c, bool(asc)) for c, asc in sort_keys]

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _compute_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        mapping = mapping or {}
        return ("sort",
                tuple((mapping.get(c, c), asc) for c, asc in self.sort_keys))

    def _input_columns(self) -> frozenset[str]:
        return frozenset(c for c, _ in self.sort_keys)

    def hashkey(self) -> tuple:
        return ("sort", len(self.sort_keys))

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "Sort":
        keys = [(input_mapping.get(c, c), asc) for c, asc in self.sort_keys]
        return Sort(children[0], keys)


class Limit(PlanNode):
    """LIMIT / OFFSET without ordering."""

    op_name = "limit"

    def __init__(self, child: PlanNode, limit: int, offset: int = 0) -> None:
        super().__init__([child])
        if limit < 0 or offset < 0:
            raise PlanError("limit/offset must be non-negative")
        self.limit = int(limit)
        self.offset = int(offset)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _compute_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        return ("limit", self.limit, self.offset)

    def hashkey(self) -> tuple:
        return ("limit", self.limit, self.offset)

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "Limit":
        return Limit(children[0], self.limit, self.offset)


class Distinct(PlanNode):
    """Duplicate elimination over all columns."""

    op_name = "distinct"

    def __init__(self, child: PlanNode) -> None:
        super().__init__([child])

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _compute_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        return ("distinct",)

    def hashkey(self) -> tuple:
        return ("distinct",)

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "Distinct":
        return Distinct(children[0])


# ----------------------------------------------------------------------
# binary / n-ary operators
# ----------------------------------------------------------------------
JOIN_KINDS = ("inner", "left", "right", "full", "semi", "anti")


class Join(PlanNode):
    """Hash join on key-column equality, with an optional extra predicate.

    Output columns are ``left ++ right`` for inner/left/right/full joins
    and just the left side for semi/anti joins.  The binder guarantees
    disjoint names.  The engine has no NULLs: the non-preserved side of
    an outer join pads with type defaults (0, 0.0, empty string).
    """

    op_name = "join"

    def __init__(self, left: PlanNode, right: PlanNode, kind: str,
                 left_keys: Sequence[str], right_keys: Sequence[str],
                 extra: Expr | None = None) -> None:
        super().__init__([left, right])
        if kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {kind!r}")
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("join needs equal, non-empty key lists")
        self.kind = kind
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.extra = extra

    @property
    def left(self) -> PlanNode:
        return self.children[0]

    @property
    def right(self) -> PlanNode:
        return self.children[1]

    def _compute_schema(self, catalog: Catalog) -> Schema:
        left_schema = self.left.output_schema(catalog)
        if self.kind in ("semi", "anti"):
            return left_schema
        right_schema = self.right.output_schema(catalog)
        return left_schema.concat(right_schema)

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        mapping = mapping or {}
        extra_key = self.extra.key(mapping) if self.extra is not None else ()
        return ("join", self.kind,
                tuple(mapping.get(c, c) for c in self.left_keys),
                tuple(mapping.get(c, c) for c in self.right_keys),
                extra_key)

    def _input_columns(self) -> frozenset[str]:
        cols = set(self.left_keys) | set(self.right_keys)
        if self.extra is not None:
            cols |= self.extra.columns()
        return frozenset(cols)

    def hashkey(self) -> tuple:
        return ("join", self.kind, len(self.left_keys))

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "Join":
        extra = self.extra.rename(input_mapping) \
            if self.extra is not None else None
        return Join(children[0], children[1], self.kind,
                    [input_mapping.get(c, c) for c in self.left_keys],
                    [input_mapping.get(c, c) for c in self.right_keys],
                    extra)

    def _substituted(self, values: Sequence[object],
                     children: list[PlanNode]) -> "Join":
        extra = self.extra.substituted(values) \
            if self.extra is not None else None
        if extra is self.extra and children is self.children:
            return self
        return Join(children[0], children[1], self.kind, self.left_keys,
                    self.right_keys, extra)


class UnionAll(PlanNode):
    """Bag union of same-arity inputs; output names come from child 0."""

    op_name = "union_all"

    def __init__(self, children: Sequence[PlanNode]) -> None:
        super().__init__(children)
        if len(children) < 2:
            raise PlanError("UNION ALL requires at least two inputs")

    def _compute_schema(self, catalog: Catalog) -> Schema:
        first = self.children[0].output_schema(catalog)
        for child in self.children[1:]:
            other = child.output_schema(catalog)
            if other.types != first.types:
                raise PlanError(
                    f"UNION ALL type mismatch: {first!r} vs {other!r}")
        return first

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        return ("union_all", len(self.children))

    def hashkey(self) -> tuple:
        return ("union_all", len(self.children))

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "UnionAll":
        return UnionAll(list(children))


class CachedScan(PlanNode):
    """A leaf that streams an already-cached (recycled) result.

    Produced by the recycler's rewriter when it substitutes a matched
    subtree with its cached result; never inserted into the recycler graph.
    ``handle`` is any object with a ``table`` attribute; ``rename`` maps
    cached (graph) column names to this query's column names.
    """

    op_name = "cached_scan"

    def __init__(self, handle, schema: Schema,
                 rename: Mapping[str, str] | None = None,
                 label: str = "") -> None:
        super().__init__([])
        self.handle = handle
        self.schema = schema
        self.rename = dict(rename or {})
        self.label = label

    def _compute_schema(self, catalog: Catalog) -> Schema:
        return self.schema

    def params_key(self, mapping: NameMapping | None = None) -> tuple:
        return ("cached_scan", id(self.handle), tuple(self.schema.names))

    def hashkey(self) -> tuple:
        return ("cached_scan", id(self.handle))

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "CachedScan":
        return CachedScan(self.handle, self.schema, self.rename, self.label)


class ExtendedScan(CachedScan):
    """A cached result brought up to date over the rows appended to one
    of its tables since it was computed (the recycler's append-aware
    reuse).

    ``delta`` is the subtree the result stands for, to be run against
    ``delta_catalog`` — the query's snapshot with that table cut down
    to the appended rows — with no reuse and no stores inside; its
    output follows the cached rows, or re-aggregates with them when
    ``delta`` is an :class:`Aggregate`.  ``publish(table, delta_cost)``
    hands the merged result back to the recycler.  ``delta`` is not a
    child: it reads another catalog, and nothing in it is matched.
    """

    op_name = "extended_scan"

    def __init__(self, handle, schema: Schema, rename: Mapping[str, str],
                 delta: PlanNode, delta_catalog: Catalog,
                 publish: Callable[..., None], label: str = "") -> None:
        super().__init__(handle, schema, rename, label)
        self.delta = delta
        self.delta_catalog = delta_catalog
        self.publish = publish

    def remapped(self, input_mapping: NameMapping,
                 assigned_mapping: NameMapping,
                 children: Sequence[PlanNode]) -> "ExtendedScan":
        return ExtendedScan(self.handle, self.schema, self.rename,
                            self.delta, self.delta_catalog, self.publish,
                            self.label)


# ----------------------------------------------------------------------
# utilities
# ----------------------------------------------------------------------
def render_plan(node: PlanNode, indent: int = 0) -> str:
    """Human-readable plan tree (for logs, docs and tests)."""
    pad = "  " * indent
    label = node.op_name
    if isinstance(node, Scan):
        label += f"({node.table} [{', '.join(node.columns)}])"
    elif isinstance(node, TableFunctionScan):
        label += f"({node.function}{node.args})"
    elif isinstance(node, Select):
        label += f"({node.predicate!r})"
    elif isinstance(node, Project):
        label += "(" + ", ".join(f"{n}={e!r}" for n, e in node.outputs) + ")"
    elif isinstance(node, Aggregate):
        keys = ", ".join(f"{n}={e!r}" for n, e in node.group_keys)
        aggs = ", ".join(repr(a) for a in node.aggregates)
        label += f"(keys=[{keys}] aggs=[{aggs}])"
    elif isinstance(node, Join):
        label += (f"({node.kind} {node.left_keys}={node.right_keys}"
                  + (f" extra={node.extra!r}" if node.extra else "") + ")")
    elif isinstance(node, (TopN, Sort)):
        label += f"({node.sort_keys}"
        if isinstance(node, TopN):
            label += f" limit={node.limit} offset={node.offset}"
        label += ")"
    elif isinstance(node, Limit):
        label += f"({node.limit} offset={node.offset})"
    lines = [pad + label]
    for child in node.children:
        lines.append(render_plan(child, indent + 1))
    return "\n".join(lines)


def plan_fingerprint(node: PlanNode) -> tuple:
    """A canonical key for a whole subtree (params + structure).

    This is what the operator-at-a-time baseline recycler matches on, and
    what tests use to assert structural equality of plans.  Note that —
    unlike recycler-graph matching — it does *not* unify differing column
    aliases across queries.
    """
    return (node.params_key(None),
            tuple(plan_fingerprint(c) for c in node.children))


def map_plan(node: PlanNode,
             fn: Callable[[PlanNode, list[PlanNode]], PlanNode]) -> PlanNode:
    """Bottom-up structural rewrite: ``fn(node, new_children)`` per node."""
    new_children = [map_plan(c, fn) for c in node.children]
    return fn(node, new_children)


def schema_of(node: PlanNode, catalog: Catalog) -> Schema:
    """Alias for ``node.output_schema`` that reads better at call sites."""
    return node.output_schema(catalog)
