"""The catalog: named base tables, statistics, table functions — versioned.

Statistics (row counts, per-column distinct counts, min/max) feed two parts
of the recycler:

* the proactive *cube caching* rules, which only fire when the selection
  column's distinct count is below a threshold (paper Section IV-B), and
* speculative size estimation for results that have never been seen.

Table functions (e.g. SkyServer's ``fGetNearbyObjEq``) are registered here
and appear in plans as leaf operators, exactly like scans.

Versioning (online DDL): every table and table function carries a
monotonically increasing **version**, bumped atomically under the catalog
write lock by every data-changing DDL operation —
:meth:`Catalog.register_table`, :meth:`Catalog.drop_table`,
:meth:`Catalog.append_rows`, :meth:`Catalog.register_function`,
:meth:`Catalog.alter_table_add_column`, :meth:`Catalog.rename_column`.
Versions survive drops, so re-creating a table is always *newer* than any
result computed from the dropped incarnation.  :meth:`Catalog.snapshot`
captures an immutable :class:`CatalogSnapshot` — the full read API over a
point-in-time table/function/version view — that a query pins at prepare
time and resolves against for its entire lifetime (binder, validator,
proactive rules, scan operators).  Entries are never mutated in place
(:meth:`register_binning` replaces the entry copy-on-write), so sharing
entry objects between the live catalog and snapshots is safe.

Alongside the fine-grained version, every table and function carries an
**incarnation** counter that only :meth:`Catalog.register_table` (a full
replace), :meth:`Catalog.drop_table`, :meth:`Catalog.rename_column`
(plans bound to the old name can never validate again), and
:meth:`Catalog.register_function` bump — :meth:`Catalog.append_rows`
and :meth:`Catalog.alter_table_add_column` do *not*: an append (or a
purely additive column) extends the same logical table, so recycler-graph
history (reference counts, recurring-plan structure) computed against it
stays meaningful, while a replace/drop starts a dataset the old
statistics say nothing about.  The recycler stamps every graph node with
the incarnations its inserting snapshot read; nodes whose stamps can
never match the live catalog again are *version-dead*: no new query
matches them, so they age out under maintenance's idle truncation (see
:mod:`repro.recycler.maintenance`).

Between the two sits each table's **base version**
(:attr:`TableEntry.base_version`): the version of its last change that
was not an append.  A result computed at version *v* with
``base_version <= v < version`` read a prefix of today's rows — the
recycler extends such results over the appended rows instead of
evicting them (:meth:`CatalogView.appended_since`,
:meth:`CatalogSnapshot.appended_rows`).

Statistics are maintained **incrementally** across appends:
:meth:`Catalog.append_rows` merges the delta batch's per-column
min/max/NaN-aware uniques into the existing :class:`ColumnStats`
(exactly, via retained unique sets) instead of rescanning the merged
table.  Retained sets are capped at
:data:`STATS_UNIQUES_LIMIT` distinct values — the incremental path targets
the low-cardinality group/selection columns the proactive rules read;
a unique-key-like column drops its set (bounding stat memory) and then
merges only appends whose values lie wholly outside its range (a
monotone key: the distinct counts add), paying the full recompute for
any other.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import CatalogError, SchemaError
from . import types as t
from .table import Schema, Table

#: A table function takes literal arguments and produces a Table.
TableFunction = Callable[..., Table]

#: cardinality cap on retained unique sets: beyond this many distinct
#: values a column's uniques are dropped (bounding stat memory) and its
#: appends pay the full recompute unless their values lie outside the
#: column's range — the incremental win targets the low-cardinality
#: group/selection columns the proactive rules care about anyway.
STATS_UNIQUES_LIMIT = 65536


class TableBackedFunction:
    """A table function whose state derives from one registered table.

    Table functions are arbitrary callables, which makes them opaque to
    process-sharded execution: a closure over table columns (SkyServer's
    cone search) cannot cross a process boundary.  This wrapper makes
    the dependency explicit — ``factory`` is a *module-level* callable
    (picklable by reference) that takes the backing :class:`Table` and
    returns the actual implementation — so the function pickles as
    ``(factory, table_name)`` and every attaching process rebinds it
    against its own catalog, where the backing table is typically a
    zero-copy shared-memory view.  Rebinding against the same table
    bytes reproduces the same implementation, so remote invocations are
    byte-identical to local ones.
    """

    __slots__ = ("factory", "table_name", "_impl")

    def __init__(self, factory: Callable[[Table], TableFunction],
                 table_name: str) -> None:
        self.factory = factory
        self.table_name = table_name.lower()
        self._impl: TableFunction | None = None

    def bind(self, catalog: "Catalog") -> "TableBackedFunction":
        """Build the implementation over ``catalog``'s current backing
        table; returns ``self`` for chaining into ``register_function``."""
        self._impl = self.factory(catalog.table(self.table_name))
        return self

    def __call__(self, *args) -> Table:
        if self._impl is None:
            raise CatalogError(
                f"table-backed function over {self.table_name!r} was"
                f" never bound to a catalog")
        return self._impl(*args)

    def __reduce__(self):
        # the implementation stays behind: the attaching process rebinds
        return (TableBackedFunction, (self.factory, self.table_name))


@dataclass
class ColumnStats:
    """Summary statistics for one column of a base table."""

    distinct_count: int
    min_value: object | None = None
    max_value: object | None = None
    #: retained unique values — a sorted ``np.ndarray`` for numeric/date
    #: columns, a ``frozenset`` for strings — the merge base that makes
    #: incremental append stats *exact* instead of approximate.  ``None``
    #: when the column is empty, when its cardinality exceeds
    #: :data:`STATS_UNIQUES_LIMIT` (retaining a near-copy of a
    #: unique-key column would double its memory; such columns merge
    #: only appends outside their value range), or when the stats were
    #: built by a legacy path.  Excluded from equality so
    #: incremental-vs-full comparisons test the visible statistics.
    uniques: object | None = field(default=None, repr=False, compare=False)


@dataclass
class BinningSpec:
    """How a high-cardinality ordered column can be binned.

    Used by the proactive "cube caching with binning" rule.  ``kind`` is
    either ``"year"`` (DATE columns binned to calendar years) or
    ``"width"`` (numeric columns binned as ``value // width``).
    """

    column: str
    kind: str
    width: int = 0  # only for kind == "width"

    def __post_init__(self) -> None:
        if self.kind not in ("year", "width"):
            raise CatalogError(f"unknown binning kind {self.kind!r}")
        if self.kind == "width" and self.width <= 0:
            raise CatalogError("width binning requires a positive width")


@dataclass
class TableEntry:
    """A base table together with its statistics.

    Treated as immutable once published: DDL replaces the entry (the old
    one lives on inside any snapshot that captured it)."""

    name: str
    table: Table
    column_stats: dict[str, ColumnStats] = field(default_factory=dict)
    binnings: dict[str, BinningSpec] = field(default_factory=dict)
    #: the table version of the last change that was *not* an append:
    #: a result computed at a version ``>=`` this one read a prefix of
    #: today's rows (see :meth:`CatalogView.appended_since`).
    base_version: int = 0

    @property
    def num_rows(self) -> int:
        return self.table.num_rows


@dataclass
class TableFunctionEntry:
    """A registered table function."""

    name: str
    function: TableFunction
    schema: Schema
    #: deterministic per-call cost units charged by the engine in addition
    #: to the per-output-tuple cost; lets expensive functions (cone search)
    #: look expensive to the benefit metric.
    invocation_cost: float = 0.0


class CatalogView:
    """The shared read API over a table/function/version mapping.

    :class:`Catalog` (live, mutable under its write lock) and
    :class:`CatalogSnapshot` (frozen point-in-time view) both expose
    exactly this interface, so every consumer — binder, validator,
    proactive rules, scan operators — works identically against either.
    """

    __slots__ = ()  # lets CatalogSnapshot's slots actually take effect

    _tables: dict[str, TableEntry]
    _functions: dict[str, TableFunctionEntry]
    _table_versions: dict[str, int]
    _function_versions: dict[str, int]
    _table_incarnations: dict[str, int]
    _function_incarnations: dict[str, int]

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_entry(self, name: str) -> TableEntry:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; have {sorted(self._tables)}"
            ) from None

    def table(self, name: str) -> Table:
        return self.table_entry(name).table

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------
    # versions
    # ------------------------------------------------------------------
    def table_version(self, name: str) -> int:
        """Current version of ``name`` (0 when never registered).

        Versions only grow, and survive :meth:`Catalog.drop_table` — any
        result computed from a dropped table is permanently behind.
        """
        return self._table_versions.get(name.lower(), 0)

    def function_version(self, name: str) -> int:
        return self._function_versions.get(name.lower(), 0)

    def versions_for(self, tables: Iterable[str],
                     functions: Iterable[str] = ()
                     ) -> tuple[dict[str, int], dict[str, int]]:
        """The version tags for a dependency set — what cache admission
        compares against the live catalog (and reuse against the query's
        snapshot)."""
        return ({name: self.table_version(name) for name in tables},
                {name: self.function_version(name) for name in functions})

    def appended_since(self, name: str, version: int) -> bool:
        """Whether ``name`` changed after ``version``, and only by
        appends: the rows it held at ``version`` are a prefix of the
        rows it holds now."""
        entry = self._tables.get(name.lower())
        return entry is not None and \
            entry.base_version <= version < self.table_version(name)

    def row_counts(self, tables: Iterable[str]) -> dict[str, int]:
        """Rows per table of a dependency set — what a cache entry
        records, so the rows appended since it was computed are known."""
        return {name: self.table_entry(name).num_rows for name in tables}

    # ------------------------------------------------------------------
    # incarnations
    # ------------------------------------------------------------------
    def table_incarnation(self, name: str) -> int:
        """Current incarnation of ``name`` (0 when never registered).

        Bumped by :meth:`Catalog.register_table` (replace) and
        :meth:`Catalog.drop_table` but — unlike :meth:`table_version` —
        **not** by :meth:`Catalog.append_rows`: appends extend the same
        logical dataset, a replace or drop starts a new one.  The
        recycler uses incarnations to decide when graph history is
        version-dead."""
        return self._table_incarnations.get(name.lower(), 0)

    def function_incarnation(self, name: str) -> int:
        return self._function_incarnations.get(name.lower(), 0)

    def incarnations_for(self, tables: Iterable[str],
                         functions: Iterable[str] = ()
                         ) -> tuple[dict[str, int], dict[str, int]]:
        """Incarnation stamps for a dependency set — what graph nodes
        record at insertion and matching compares against."""
        return ({name: self.table_incarnation(name) for name in tables},
                {name: self.function_incarnation(name)
                 for name in functions})

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def distinct_count(self, table: str, column: str) -> int:
        """Distinct values of ``table.column`` (0 when unknown)."""
        entry = self.table_entry(table)
        stats = entry.column_stats.get(column)
        return stats.distinct_count if stats else 0

    def column_range(self, table: str,
                     column: str) -> tuple[object, object] | None:
        entry = self.table_entry(table)
        stats = entry.column_stats.get(column)
        if stats is None or stats.min_value is None:
            return None
        return stats.min_value, stats.max_value

    # ------------------------------------------------------------------
    # binning specs (drive cube caching with binning)
    # ------------------------------------------------------------------
    def binning_for(self, table: str, column: str) -> BinningSpec | None:
        entry = self.table_entry(table)
        return entry.binnings.get(column)

    # ------------------------------------------------------------------
    # table functions
    # ------------------------------------------------------------------
    def has_function(self, name: str) -> bool:
        return name.lower() in self._functions

    def function_names(self) -> list[str]:
        return sorted(self._functions)

    def function_entry(self, name: str) -> TableFunctionEntry:
        try:
            return self._functions[name.lower()]
        except KeyError:
            raise CatalogError(
                f"unknown table function {name!r};"
                f" have {sorted(self._functions)}") from None

    def call_function(self, name: str, args: Sequence[object]) -> Table:
        entry = self.function_entry(name)
        result = entry.function(*args)
        if result.schema != entry.schema:
            raise CatalogError(
                f"table function {name!r} returned schema {result.schema!r},"
                f" registered {entry.schema!r}")
        return result


class CatalogSnapshot(CatalogView):
    """An immutable point-in-time view of a :class:`Catalog`.

    Every query pins one at prepare time and resolves tables, functions,
    statistics, and binnings against it for its whole lifetime — a
    concurrent ``register_table``/``drop_table``/``append_rows`` never
    changes what a running query reads (the old :class:`~.table.Table`
    objects are immutable and stay alive through the snapshot).
    """

    __slots__ = ("_tables", "_functions", "_table_versions",
                 "_function_versions", "_table_incarnations",
                 "_function_incarnations", "ddl_clock")

    def __init__(self, tables: dict[str, TableEntry],
                 functions: dict[str, TableFunctionEntry],
                 table_versions: dict[str, int],
                 function_versions: dict[str, int],
                 ddl_clock: int,
                 table_incarnations: dict[str, int] | None = None,
                 function_incarnations: dict[str, int] | None = None
                 ) -> None:
        self._tables = tables
        self._functions = functions
        self._table_versions = table_versions
        self._function_versions = function_versions
        self._table_incarnations = table_incarnations or {}
        self._function_incarnations = function_incarnations or {}
        #: value of the catalog's global DDL counter at capture time.
        self.ddl_clock = ddl_clock

    def appended_rows(self, name: str, start: int) -> "CatalogSnapshot":
        """This snapshot with table ``name`` cut down to its rows from
        ``start`` on — what a cached result's plan runs against to
        compute its result over the rows appended since it was cached."""
        key = name.lower()
        table = self.table(key)
        delta = Table(table.schema, {column: table.column(column)[start:]
                                     for column in table.schema.names})
        return CatalogSnapshot(
            {**self._tables, key: TableEntry(name=key, table=delta)},
            self._functions, self._table_versions,
            self._function_versions, self.ddl_clock,
            self._table_incarnations, self._function_incarnations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CatalogSnapshot(ddl_clock={self.ddl_clock},"
                f" tables={sorted(self._tables)})")


class Catalog(CatalogView):
    """A registry of base tables and table functions.

    Reads are lock-free (snapshots and the live view share immutable
    entries); every mutation swaps entries and bumps the affected
    version atomically under the write lock, so a :meth:`snapshot` can
    never observe a table without its matching version bump.
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        self._functions: dict[str, TableFunctionEntry] = {}
        self._table_versions: dict[str, int] = {}
        self._function_versions: dict[str, int] = {}
        self._table_incarnations: dict[str, int] = {}
        self._function_incarnations: dict[str, int] = {}
        #: total DDL operations ever applied (monotonic observability
        #: clock; per-name versions drive correctness — but two
        #: snapshots of one catalog at one clock hold the same tables,
        #: statistics and binning specs, which
        #: ``exec_service.Statement.variant`` keys its window proof and
        #: proactive rewrite on).
        self.ddl_clock = 0
        #: observability: how appends maintained their statistics
        #: (mutated under the write lock, surfaced by
        #: ``Database.summary()["maintenance"]``).
        self.stats_counters = {"incremental_merges": 0,
                               "full_recomputes": 0}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> CatalogSnapshot:
        """Capture an immutable view of every table, function, binning,
        and version — the unit of isolation for one query."""
        with self._lock:
            return CatalogSnapshot(dict(self._tables),
                                   dict(self._functions),
                                   dict(self._table_versions),
                                   dict(self._function_versions),
                                   self.ddl_clock,
                                   dict(self._table_incarnations),
                                   dict(self._function_incarnations))

    # ------------------------------------------------------------------
    # DDL: tables
    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Table,
                       compute_stats: bool = True) -> TableEntry:
        """Register (or replace) a base table: swap the entry and bump
        its version in one atomic step.

        When ``compute_stats`` is set, per-column distinct counts and
        min/max are computed eagerly; tiny tables make this cheap and the
        proactive rules rely on the distinct counts being present.
        """
        key = name.lower()
        entry = TableEntry(name=key, table=table)
        if compute_stats:
            entry.column_stats = _compute_stats(table)
        with self._lock:
            self._publish(key, entry)
            self._bump_incarnation(key)
        return entry

    def drop_table(self, name: str) -> None:
        """Remove a base table; its version is bumped (and kept) so any
        cached result computed from it stays permanently behind."""
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                raise CatalogError(f"unknown table {name!r}")
            del self._tables[key]
            self._bump_table(key)
            self._bump_incarnation(key)

    def append_rows(self, name: str, rows: "Table | Iterable[Sequence]",
                    compute_stats: bool = True) -> TableEntry:
        """The update-transaction fast path: append ``rows`` (a
        schema-compatible :class:`~.table.Table` or an iterable of row
        tuples) to ``name`` as one atomic swap-and-bump.

        The appended-to table is rebuilt as a fresh immutable
        :class:`~.table.Table`, so snapshots pinned before the append
        keep reading the old rows — exactly the paper's committed-update
        model, per table instead of per batch.

        Statistics are maintained **incrementally**: the delta batch's
        per-column stats (NaN-aware, exactly as the full path computes
        them) are merged into the existing entry's retained unique sets
        instead of rescanning the merged table — O(delta + distinct)
        instead of O(table) per append.  The full recompute runs only
        when the merge cannot be exact: the existing entry has no
        statistics, or lacks retained uniques for a column whose value
        range the delta overlaps.

        Optimistic under concurrent DDL: the merge runs outside the
        lock, and if another DDL swapped the table meanwhile the append
        re-reads and re-merges (appends serialize, they never fail
        spuriously and never lose rows).  Only a genuine schema change
        racing in raises :class:`~repro.errors.SchemaError`.

        Appending zero rows changes nothing — no version bump, no
        statistics merge — and returns the current entry unchanged.
        The version bump of a real append leaves the entry's
        ``base_version`` where it was, which is what lets the recycler
        extend cached results over the new rows instead of dropping
        them.
        """
        key = name.lower()
        extra: Table | None = rows if isinstance(rows, Table) else None
        while True:
            old = self.table_entry(name)
            schema = old.table.schema
            if extra is None:
                # Materialize the row iterable exactly once (it may be
                # a one-shot generator); retries reuse the Table.
                extra = Table.from_rows(schema.names, schema.types, rows)
            if extra.schema != schema:
                raise SchemaError(
                    f"append to {name!r}: schema {extra.schema!r} does"
                    f" not match {schema!r}")
            if extra.num_rows == 0:
                return old  # nothing changed: no version to bump
            merged = Table(schema, {
                column: np.concatenate([old.table.column(column),
                                        extra.column(column)])
                for column in schema.names})
            entry = TableEntry(name=key, table=merged,
                               binnings=old.binnings,
                               base_version=old.base_version)
            incremental = False
            if compute_stats:
                merged_stats = _merge_stats(old.column_stats, extra)
                incremental = merged_stats is not None
                entry.column_stats = merged_stats if incremental \
                    else _compute_stats(merged)
            with self._lock:
                if self._tables.get(key) is not old:
                    continue  # concurrent DDL swapped mid-merge; redo
                self._publish(key, entry, append=True)
                if compute_stats:
                    counter = "incremental_merges" if incremental \
                        else "full_recomputes"
                    self.stats_counters[counter] += 1
            return entry

    # ------------------------------------------------------------------
    # DDL: schema evolution
    # ------------------------------------------------------------------
    def alter_table_add_column(self, name: str, column: str,
                               dtype: t.DataType,
                               default: object | None = None
                               ) -> TableEntry:
        """Add ``column`` to table ``name``, filled with ``default``
        (the type's zero value — 0, 0.0, "" — when omitted).

        Bumps the table **version** (cached results claiming to cover
        the table are pre-evolution and must be rejected by admission /
        invalidated) but **not** its incarnation: the existing columns
        are byte-identical, so plans bound before the DDL — which
        cannot reference the new column — still validate against the
        new entry, and recycler-graph history stays meaningful.
        """
        key = name.lower()
        with self._lock:
            old = self.table_entry(name)
            schema = old.table.schema
            if column in schema.names:
                raise SchemaError(
                    f"table {name!r} already has a column {column!r}")
            if default is None:
                default = "" if dtype is t.STRING else 0
            if dtype is t.STRING:
                fill = np.empty(old.table.num_rows, dtype=object)
                fill[:] = default
            else:
                fill = np.full(old.table.num_rows, default,
                               dtype=dtype.numpy_dtype)
            new_schema = schema.concat(Schema([column], [dtype]))
            table = Table(new_schema,
                          {**{n: old.table.column(n)
                              for n in schema.names},
                           column: fill})
            stats = dict(old.column_stats)
            if stats:
                stats[column] = _compute_stats(
                    table.select([column]))[column]
            entry = TableEntry(name=key, table=table,
                               column_stats=stats,
                               binnings=old.binnings)
            self._publish(key, entry)
        return entry

    def rename_column(self, name: str, old_name: str,
                      new_name: str) -> TableEntry:
        """Rename ``old_name`` to ``new_name`` in table ``name``.

        Bumps the table version **and** its incarnation: any plan bound
        against the old column name fails validation (the column is
        gone) and must be re-bound, and recycler-graph history keyed on
        the old name is version-dead.
        """
        key = name.lower()
        with self._lock:
            old = self.table_entry(name)
            schema = old.table.schema
            if old_name not in schema.names:
                raise SchemaError(
                    f"table {name!r} has no column {old_name!r}")
            if new_name in schema.names:
                raise SchemaError(
                    f"table {name!r} already has a column {new_name!r}")
            mapping = {old_name: new_name}
            stats = {mapping.get(n, n): s
                     for n, s in old.column_stats.items()}
            binnings = {mapping.get(col, col):
                        replace(spec, column=mapping.get(col, col))
                        for col, spec in old.binnings.items()}
            entry = TableEntry(name=key, table=old.table.rename(mapping),
                               column_stats=stats, binnings=binnings)
            self._publish(key, entry)
            self._bump_incarnation(key)
        return entry

    def register_binning(self, table: str, spec: BinningSpec) -> None:
        """Declare how a column may be binned.  Copy-on-write: the entry
        is replaced (never mutated), keeping snapshots immutable.  No
        version bump — a binning spec changes plan shapes the proactive
        rules may produce, not the table's contents, so existing cached
        results stay valid — but the DDL clock moves."""
        with self._lock:
            entry = self.table_entry(table)
            binnings = dict(entry.binnings)
            binnings[spec.column] = spec
            self._tables[entry.name] = replace(entry, binnings=binnings)
            self.ddl_clock += 1

    def _publish(self, key: str, entry: TableEntry,
                 append: bool = False) -> None:
        """Swap ``entry`` in and bump the table's version (caller holds
        the lock); any change but an append also moves the entry's
        base version to the new version."""
        if not append:
            entry.base_version = self.table_version(key) + 1
        self._tables[key] = entry
        self._bump_table(key)

    def _bump_table(self, key: str) -> None:
        self._table_versions[key] = self._table_versions.get(key, 0) + 1
        self.ddl_clock += 1

    def _bump_incarnation(self, key: str) -> None:
        self._table_incarnations[key] = \
            self._table_incarnations.get(key, 0) + 1

    # ------------------------------------------------------------------
    # DDL: table functions
    # ------------------------------------------------------------------
    def register_function(self, name: str, function: TableFunction,
                          schema: Schema,
                          invocation_cost: float = 0.0) -> None:
        key = name.lower()
        with self._lock:
            self._functions[key] = TableFunctionEntry(
                name=key, function=function, schema=schema,
                invocation_cost=invocation_cost)
            self._function_versions[key] = \
                self._function_versions.get(key, 0) + 1
            self._function_incarnations[key] = \
                self._function_incarnations.get(key, 0) + 1
            self.ddl_clock += 1


def _capped(stats: ColumnStats) -> ColumnStats:
    """Drop the retained unique set when it exceeds
    :data:`STATS_UNIQUES_LIMIT`: the visible statistics stay exact, but
    the column's next append that overlaps its value range pays the
    full recompute instead of carrying a near-copy of a unique-key
    column around forever."""
    if stats.uniques is not None and \
            stats.distinct_count > STATS_UNIQUES_LIMIT:
        stats.uniques = None
    return stats


def _compute_stats(table: Table) -> dict[str, ColumnStats]:
    stats: dict[str, ColumnStats] = {}
    for name in table.schema.names:
        values = table.column(name)
        if len(values) == 0:
            stats[name] = ColumnStats(distinct_count=0)
            continue
        dtype = table.schema.type_of(name)
        if dtype is t.STRING:
            uniques = frozenset(values.tolist())
            stats[name] = _capped(
                ColumnStats(distinct_count=len(uniques),
                            min_value=min(uniques),
                            max_value=max(uniques),
                            uniques=uniques))
        else:
            if np.issubdtype(values.dtype, np.floating):
                # np.unique counts every NaN as its own distinct value
                # and would return NaN min/max, corrupting the proactive
                # cube threshold and speculative size estimates.
                values = values[~np.isnan(values)]
                if len(values) == 0:
                    stats[name] = ColumnStats(distinct_count=0)
                    continue
            uniques = np.unique(values)
            stats[name] = _capped(
                ColumnStats(distinct_count=int(len(uniques)),
                            min_value=uniques[0].item(),
                            max_value=uniques[-1].item(),
                            uniques=uniques))
    return stats


def _merge_stats(old: dict[str, ColumnStats],
                 delta: Table) -> dict[str, ColumnStats] | None:
    """Merge the delta batch's statistics into ``old`` exactly.

    A column whose retained set was dropped (cardinality cap) still
    merges when the delta's value range lies wholly outside the prior
    one — the distinct counts add — which is every append to a monotone
    key such as a timestamp.

    Returns ``None`` when any column cannot be merged losslessly — no
    prior stats (registered with ``compute_stats=False``) or a non-empty
    column without retained uniques whose range the delta overlaps —
    signalling the caller to fall back to a full recompute of the
    merged table.
    """
    delta_stats = _compute_stats(delta)
    merged: dict[str, ColumnStats] = {}
    for name, fresh in delta_stats.items():
        prior = old.get(name)
        if prior is None:
            return None
        if prior.distinct_count == 0:
            # Empty (or all-NaN) prefix: the delta's stats are exact.
            merged[name] = fresh
            continue
        if fresh.distinct_count == 0:
            merged[name] = prior
            continue
        if prior.uniques is None or fresh.uniques is None:
            # A retained set is missing (cardinality cap, legacy
            # construction): exact only when no value can be in both.
            if prior.min_value is None or not (
                    fresh.min_value > prior.max_value
                    or fresh.max_value < prior.min_value):
                return None
            merged[name] = ColumnStats(
                distinct_count=prior.distinct_count + fresh.distinct_count,
                min_value=min(prior.min_value, fresh.min_value),
                max_value=max(prior.max_value, fresh.max_value))
            continue
        if isinstance(prior.uniques, frozenset):
            uniques = prior.uniques | fresh.uniques
            merged[name] = _capped(
                ColumnStats(distinct_count=len(uniques),
                            min_value=min(uniques),
                            max_value=max(uniques),
                            uniques=uniques))
        else:
            uniques = _merge_sorted_uniques(prior.uniques, fresh.uniques)
            merged[name] = _capped(
                ColumnStats(distinct_count=int(len(uniques)),
                            min_value=uniques[0].item(),
                            max_value=uniques[-1].item(),
                            uniques=uniques))
    return merged


def _merge_sorted_uniques(prior: np.ndarray,
                          fresh: np.ndarray) -> np.ndarray:
    """Union of two sorted duplicate-free arrays, sorted: only the
    values ``prior`` lacks are inserted (``prior`` itself when there are
    none), instead of re-sorting both."""
    slots = np.searchsorted(prior, fresh)
    new = prior[np.minimum(slots, len(prior) - 1)] != fresh
    if not new.any():
        return prior
    return np.insert(prior, slots[new], fresh[new])


__all__ = [
    "BinningSpec", "Catalog", "CatalogSnapshot", "CatalogView",
    "ColumnStats", "TableEntry", "TableFunction", "TableFunctionEntry",
]
