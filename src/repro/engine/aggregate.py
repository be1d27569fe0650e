"""Blocking hash aggregation (GROUP BY) and duplicate elimination.

The operator consumes its whole input, groups with the shared
:mod:`grouping` utilities, then streams the grouped result in vectors.
Scalar aggregation (no group keys) always emits exactly one row; on empty
input the aggregates default to zero (the engine has no NULLs — a
documented simplification).

Cancellation: the consume loop checks the query's token per input batch,
so a cancelled query aborts during the build; the vectorized grouping
itself (one numpy pass over the consumed input) runs to completion and
the abort lands at the next emitted batch.
"""

from __future__ import annotations

import numpy as np

from ..columnar import types as t
from ..columnar.batch import Batch, concat_batches
from ..columnar.table import Table
from ..errors import ExecutionError
from ..plan.logical import Aggregate, Distinct
from .base import PhysicalOperator, QueryContext
from .grouping import GroupedRows, count_distinct_per_group, factorize


class AggregateOp(PhysicalOperator):
    """Vectorized blocking GROUP BY."""

    def __init__(self, ctx: QueryContext, logical: Aggregate,
                 child: PhysicalOperator) -> None:
        schema = logical.output_schema(ctx.catalog)
        super().__init__(ctx, logical, [child], schema)
        self._group_keys = logical.group_keys
        self._aggregates = logical.aggregates
        self._result: Batch | None = None
        self._emitted = 0
        self._done_building = False

    # ------------------------------------------------------------------
    def _build(self) -> None:
        child = self.children[0]
        batches: list[Batch] = []
        rows = 0
        while True:
            self.ctx.token.check()  # per-input-batch cancellation point
            batch = child.next()
            if batch is None:
                break
            rows += len(batch)
            self.charge(len(batch)
                        * self.ctx.cost_model.aggregate_input_tuple)
            batches.append(batch)
        self._result = self._aggregate(batches, rows)
        self.charge(len(self._result)
                    * self.ctx.cost_model.aggregate_group)
        self._done_building = True

    def _aggregate(self, batches: list[Batch], rows: int) -> Batch:
        child_schema = self.children[0].schema
        if rows == 0:
            return self._empty_result(child_schema)
        data = concat_batches(batches)
        key_arrays = [expr.eval(data) for _, expr in self._group_keys]
        agg_inputs = {}
        for agg in self._aggregates:
            if agg.arg is not None:
                agg_inputs[agg.name] = np.asarray(agg.arg.eval(data))

        columns: dict[str, np.ndarray] = {}
        if self._group_keys:
            codes, _ = factorize(key_arrays)
            grouped = GroupedRows(codes)
            for (name, _), arr in zip(self._group_keys, key_arrays):
                columns[name] = grouped.representatives(arr)
            for agg in self._aggregates:
                if agg.func == "count_distinct":
                    columns[agg.name] = count_distinct_per_group(
                        codes, agg_inputs[agg.name])
                else:
                    columns[agg.name] = _grouped_agg(
                        agg.func, grouped, agg_inputs.get(agg.name))
        else:
            for agg in self._aggregates:
                columns[agg.name] = _scalar_agg(agg.func, rows,
                                                agg_inputs.get(agg.name))
        return Batch(columns)

    def _empty_result(self, child_schema) -> Batch:
        if self._group_keys:
            return Batch.empty(self.schema.names, self.schema.types)
        columns = {}
        for agg in self._aggregates:
            dtype = self.schema.type_of(agg.name)
            if dtype is t.STRING:
                empty = np.empty(1, dtype=object)
                empty[0] = ""
                columns[agg.name] = empty
            else:
                columns[agg.name] = np.zeros(1, dtype=dtype.numpy_dtype)
        return Batch(columns)

    # ------------------------------------------------------------------
    def _next(self) -> Batch | None:
        if not self._done_building:
            self._build()
        assert self._result is not None
        if self._emitted >= len(self._result):
            return None
        stop = min(self._emitted + self.ctx.vector_size, len(self._result))
        batch = self._result.slice(self._emitted, stop)
        self._emitted = stop
        return batch

    def progress(self) -> float:
        if not self._done_building:
            return self.children[0].progress()
        total = len(self._result) if self._result is not None else 0
        return 1.0 if total == 0 else self._emitted / total

    def cost_progress(self) -> float:
        # Blocking: essentially all cost is spent once the build is done.
        if not self._done_building:
            return self.children[0].cost_progress()
        return 1.0


def _grouped_agg(func: str, grouped: GroupedRows,
                 values: np.ndarray | None) -> np.ndarray:
    if func == "count_star":
        return grouped.reduce_count()
    if values is None:
        raise ExecutionError(f"aggregate {func} missing its argument")
    if func == "sum":
        result = grouped.reduce_sum(_widen_for_sum(values))
        return result
    if func == "count":
        return grouped.reduce_count()
    if func == "avg":
        sums = grouped.reduce_sum(values.astype(np.float64))
        return sums / grouped.reduce_count()
    if func == "min":
        return grouped.reduce_min(values)
    if func == "max":
        return grouped.reduce_max(values)
    raise ExecutionError(f"unknown aggregate {func!r}")


def _scalar_agg(func: str, rows: int,
                values: np.ndarray | None) -> np.ndarray:
    if func == "count_star":
        return np.array([rows], dtype=np.int64)
    if values is None:
        raise ExecutionError(f"aggregate {func} missing its argument")
    if func == "count_distinct":
        distinct = set(values.tolist()) if values.dtype.kind == "O" \
            else np.unique(values)
        return np.array([len(distinct)], dtype=np.int64)
    if func == "sum":
        return np.array([_widen_for_sum(values).sum()])
    if func == "count":
        return np.array([len(values)], dtype=np.int64)
    if func == "avg":
        return np.array([float(values.astype(np.float64).mean())])
    if func == "min":
        if values.dtype.kind == "O":
            out = np.empty(1, dtype=object)
            out[0] = min(values.tolist())
            return out
        return np.array([values.min()], dtype=values.dtype)
    if func == "max":
        if values.dtype.kind == "O":
            out = np.empty(1, dtype=object)
            out[0] = max(values.tolist())
            return out
        return np.array([values.max()], dtype=values.dtype)
    raise ExecutionError(f"unknown aggregate {func!r}")


#: per aggregate, the aggregate that combines its results over disjoint
#: inputs into its result over their union, bit for bit — given integer
#: sums (a float sum re-associates) and groups (a scalar min/max over
#: an empty input is 0, which merges wrongly).  ``avg`` and
#: ``count_distinct`` do not decompose.
PARTIAL_MERGE = {"count": "sum", "count_star": "sum", "sum": "sum",
                 "min": "min", "max": "max"}


def merge_groups(logical: Aggregate, old: Table, new: Table) -> Table:
    """``logical``'s result over the union of two inputs, from its
    results ``old`` and ``new`` over each: their rows re-aggregate
    through :data:`PARTIAL_MERGE`.  Groups come out in key order, each
    key as its first occurrence (``old``'s before ``new``'s) — what the
    operator itself emits over the union."""
    data = concat_batches([old.to_batch(), new.to_batch()],
                          schema=old.schema)
    columns: dict[str, np.ndarray] = {}
    if logical.group_keys:
        keys = [data.column(name) for name, _ in logical.group_keys]
        grouped = GroupedRows(factorize(keys)[0])
        for (name, _), values in zip(logical.group_keys, keys):
            columns[name] = grouped.representatives(values)
        for agg in logical.aggregates:
            columns[agg.name] = _grouped_agg(
                PARTIAL_MERGE[agg.func], grouped, data.column(agg.name))
    else:
        for agg in logical.aggregates:
            columns[agg.name] = _scalar_agg(
                PARTIAL_MERGE[agg.func], len(data), data.column(agg.name))
    return Table(old.schema, columns)


def _widen_for_sum(values: np.ndarray) -> np.ndarray:
    """Sum bools and narrow ints as int64, floats as float64."""
    if values.dtype.kind == "b":
        return values.astype(np.int64)
    if values.dtype.kind in ("i", "u"):
        return values.astype(np.int64)
    return values.astype(np.float64)


class DistinctOp(PhysicalOperator):
    """Blocking duplicate elimination over all columns."""

    def __init__(self, ctx: QueryContext, logical: Distinct,
                 child: PhysicalOperator) -> None:
        super().__init__(ctx, logical, [child], child.schema)
        self._result: Batch | None = None
        self._emitted = 0
        self._done_building = False

    def _build(self) -> None:
        child = self.children[0]
        batches = []
        rows = 0
        while True:
            self.ctx.token.check()  # per-input-batch cancellation point
            batch = child.next()
            if batch is None:
                break
            rows += len(batch)
            self.charge(len(batch)
                        * self.ctx.cost_model.distinct_input_tuple)
            batches.append(batch)
        data = concat_batches(batches, schema=self.schema)
        if len(data) == 0:
            self._result = data
        else:
            codes, _ = factorize([data.column(n) for n in data.names])
            grouped = GroupedRows(codes)
            first_rows = grouped.order[grouped.starts]
            self._result = data.take(np.sort(first_rows))
        self._done_building = True

    def _next(self) -> Batch | None:
        if not self._done_building:
            self._build()
        assert self._result is not None
        if self._emitted >= len(self._result):
            return None
        stop = min(self._emitted + self.ctx.vector_size, len(self._result))
        batch = self._result.slice(self._emitted, stop)
        self._emitted = stop
        return batch

    def progress(self) -> float:
        if not self._done_building:
            return self.children[0].progress()
        total = len(self._result) if self._result is not None else 0
        return 1.0 if total == 0 else self._emitted / total

    def cost_progress(self) -> float:
        # Blocking: essentially all cost is spent once the build is done.
        if not self._done_building:
            return self.children[0].cost_progress()
        return 1.0
