"""Leaf operators: base-table scan, table-function scan, cached-result
scan, and the cached-result scan extended over appended rows.

Leaves emit one vector per ``next()`` call, so the base class's
per-batch token check makes every scan loop a cancellation point; the
one-shot table-function invocation in ``TableFunctionOp._open`` is
guarded by the check in ``PhysicalOperator.open`` (it cannot be
interrupted once running — cancellation is cooperative).

Snapshot semantics (online DDL): ``ctx.catalog`` is the query's pinned
:class:`~repro.columnar.catalog.CatalogSnapshot`.  ``TableScanOp``
resolves its table exactly once, at construction, against that
snapshot and holds the immutable :class:`~repro.columnar.table.Table`
for its whole lifetime — there is **no mid-execution re-resolution**,
so a concurrent ``register_table``/``append_rows``/``drop_table`` can
never make one query observe a mix of old and new rows.
"""

from __future__ import annotations

from ..columnar.batch import Batch, concat_batches
from ..columnar.table import Schema, Table
from ..plan.logical import (Aggregate, ExtendedScan, PlanNode, Scan,
                            TableFunctionScan, TopN)
from .aggregate import merge_groups
from .base import PhysicalOperator, QueryContext
from .topn import top_rows


class TableScanOp(PhysicalOperator):
    """Scan a base table, emitting only the requested columns."""

    def __init__(self, ctx: QueryContext, logical: Scan) -> None:
        table = ctx.catalog.table(logical.table).select(logical.columns)
        super().__init__(ctx, logical, [], table.schema)
        self._table = table
        self._offset = 0

    def _next(self) -> Batch | None:
        if self._offset >= self._table.num_rows:
            return None
        stop = min(self._offset + self.ctx.vector_size,
                   self._table.num_rows)
        batch = self._table.to_batch(self._offset, stop)
        self._offset = stop
        self.charge(len(batch) * self.ctx.cost_model.scan_tuple)
        return batch

    def progress(self) -> float:
        total = self._table.num_rows
        return 1.0 if total == 0 else self._offset / total


class TableFunctionOp(PhysicalOperator):
    """Evaluate a catalog table function once, then stream its result.

    The per-invocation cost registered in the catalog is charged up front —
    this is what makes e.g. the SkyServer cone search an expensive (and
    therefore cache-worthy) leaf.
    """

    def __init__(self, ctx: QueryContext, logical: TableFunctionScan) -> None:
        entry = ctx.catalog.function_entry(logical.function)
        super().__init__(ctx, logical, [], entry.schema)
        self._entry = entry
        self._args = logical.args
        self._table: Table | None = None
        self._offset = 0

    def _open(self) -> None:
        self._table = self.ctx.catalog.call_function(self._entry.name,
                                                     self._args)
        self.charge(self._entry.invocation_cost)

    def _next(self) -> Batch | None:
        assert self._table is not None, "operator not opened"
        if self._offset >= self._table.num_rows:
            return None
        stop = min(self._offset + self.ctx.vector_size,
                   self._table.num_rows)
        batch = self._table.to_batch(self._offset, stop)
        self._offset = stop
        self.charge(len(batch) * self.ctx.cost_model.table_function_tuple)
        return batch

    def progress(self) -> float:
        if self._table is None or self._table.num_rows == 0:
            return 1.0 if self._table is not None else 0.0
        return self._offset / self._table.num_rows


class ReuseScanOp(PhysicalOperator):
    """Stream a cached (recycled) result, optionally renaming columns.

    ``handle`` is any object with a ``table`` attribute (the recycler's
    cache entry); ``rename`` maps cached (graph) column names to the names
    the consuming query expects.
    """

    def __init__(self, ctx: QueryContext, logical: PlanNode | None,
                 handle, rename: dict[str, str] | None,
                 schema: Schema) -> None:
        super().__init__(ctx, logical, [], schema)
        self._handle = handle
        self._rename = dict(rename or {})
        self._offset = 0
        self._table: Table | None = None

    def _open(self) -> None:
        # the query's names and column order; a cached result may carry
        # extra columns when column subsumption applied
        self._table = self._handle.table.project(self.schema, self._rename)

    def _next(self) -> Batch | None:
        assert self._table is not None, "operator not opened"
        if self._offset >= self._table.num_rows:
            return None
        stop = min(self._offset + self.ctx.vector_size,
                   self._table.num_rows)
        batch = self._table.to_batch(self._offset, stop)
        self._offset = stop
        self.charge(len(batch) * self.ctx.cost_model.reuse_tuple)
        return batch

    def progress(self) -> float:
        if self._table is None:
            return 0.0
        total = self._table.num_rows
        return 1.0 if total == 0 else self._offset / total


class ExtendScanOp(ReuseScanOp):
    """Stream a cached result extended over the rows appended to one of
    its tables since it was computed (an
    :class:`~repro.plan.logical.ExtendedScan`).

    On open it runs ``delta`` — the replaced subtree, compiled against
    the appended rows alone — to completion, merges that output with the
    cached rows (after them for a row-level subtree; re-aggregated with
    them, :func:`~repro.engine.aggregate.merge_groups`, for an
    aggregate; ranked after them, :func:`~repro.engine.topn.top_rows`,
    for a TopN), hands the merged table to the recycler, and streams it
    like any reuse scan.  It is charged the delta run's cost on top of
    the ``reuse_tuple`` per emitted row.
    """

    def __init__(self, ctx: QueryContext, logical: ExtendedScan,
                 delta: PhysicalOperator) -> None:
        super().__init__(ctx, logical, logical.handle, logical.rename,
                         logical.schema)
        self._delta = delta

    def _open(self) -> None:
        delta = self._delta
        batches = []
        delta.open()
        try:
            while (batch := delta.next()) is not None:
                batches.append(batch)
        finally:
            delta.close()
        cost = delta.cumulative_cost()
        self.charge(cost)
        merged = self._handle.table.project(self.schema, self._rename)
        new = Table.from_batches(self.schema, batches)
        delta_plan = self.logical.delta
        if new.num_rows and isinstance(delta_plan, Aggregate):
            merged = merge_groups(delta_plan, merged, new)
        elif new.num_rows:
            rows = [merged.to_batch(), new.to_batch()]
            if isinstance(delta_plan, TopN):
                rows = [top_rows(concat_batches(rows), delta_plan.sort_keys,
                                 delta_plan.limit)]
            merged = Table.from_batches(self.schema, rows)
        self.logical.publish(merged, cost)
        self._table = merged
