"""Blocking sort operator and shared multi-key ordering utility.

Cancellation: the consume loop is a per-input-batch cancellation point;
the final lexsort over the consumed input is one uninterruptible numpy
call.
"""

from __future__ import annotations

import numpy as np

from ..columnar import types as t
from ..columnar.batch import Batch, concat_batches
from ..plan.logical import Sort
from .base import PhysicalOperator, QueryContext


def ascending_key(values: np.ndarray, ascending: bool) -> np.ndarray:
    """A sort key column whose ascending order is ``values``' order in
    the given direction: string values as their dictionary codes
    (``types.string_codes``; numpy cannot negate object arrays, and
    would compare them in Python), descending keys negated."""
    if values.dtype.kind == "O":
        _, values = t.string_codes(values)
    if not ascending:
        values = -values.astype(np.float64) \
            if values.dtype.kind == "f" else -values.astype(np.int64)
    return values


def sort_indices(batch: Batch,
                 sort_keys: list[tuple[str, bool]]) -> np.ndarray:
    """Row order for multi-key sorting with per-key direction."""
    return np.lexsort([ascending_key(batch.column(name), ascending)
                       # lexsort: last = primary
                       for name, ascending in reversed(sort_keys)])


class SortOp(PhysicalOperator):
    """Full blocking sort."""

    def __init__(self, ctx: QueryContext, logical: Sort,
                 child: PhysicalOperator) -> None:
        super().__init__(ctx, logical, [child], child.schema)
        self._sort_keys = logical.sort_keys
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
            batches.append(batch)
        data = concat_batches(batches, schema=self.schema)
        order = sort_indices(data, self._sort_keys)
        self._result = data.take(order)
        self.charge(self.ctx.cost_model.sort_cost(rows))
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
