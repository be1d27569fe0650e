"""Bounded top-N operator (the paper's ``topN``).

Vectorwise's ``topN`` keeps a heap of N rows at O(M log N); the vectorized
equivalent here accumulates candidates and periodically compacts them down
to the best ``limit + offset`` rows (:func:`top_rows`), giving the same
bounded memory and an amortized cost charged per input tuple.  A
compaction sorts only the rows that can still make the cut: one linear
``np.partition`` finds the N-th best primary key, and the rows strictly
worse are dropped before the sort.  Output is emitted in sort order, so
``Limit(k)`` over a cached ``topN(10000)`` result — the proactive top-N
strategy — is exact.
"""

from __future__ import annotations

import numpy as np

from ..columnar.batch import Batch, concat_batches
from ..plan.logical import TopN
from .base import PhysicalOperator, QueryContext
from .sort import ascending_key, sort_indices


def top_rows(batch: Batch, sort_keys: list[tuple[str, bool]],
             keep: int) -> Batch:
    """The first ``keep`` rows of ``batch`` in ``sort_keys`` order —
    ``batch.take(sort_indices(batch, sort_keys)[:keep])`` — sorting
    only the rows whose primary key is no worse than the ``keep``-th
    best.

    Exact: at least ``keep`` rows are no worse than that bound, and they
    all sort before the rest; the survivors keep their input order, so
    the stable sort breaks their ties as the full sort would (ties with
    the bound survive).  When the bound is NaN (fewer than ``keep``
    non-NaN keys; NaN sorts last) nothing is dropped, and a STRING
    primary key is not filtered (its codes would be built twice).  The
    same stability makes the top rows of ``A ++ B`` the top rows of
    ``top_rows(A) ++ top_rows(B)`` — what compaction and a TopN result
    extended over appended rows rely on.
    """
    name, ascending = sort_keys[0]
    values = batch.column(name)
    if 0 < keep < len(batch) and values.dtype.kind != "O":
        key = ascending_key(values, ascending)
        bound = np.partition(key, keep - 1)[keep - 1]
        if bound == bound:
            rows = np.flatnonzero(key <= bound)
            if len(rows) < len(batch):
                survivors = Batch({key_name: batch.column(key_name)[rows]
                                   for key_name, _ in sort_keys})
                return batch.take(
                    rows[sort_indices(survivors, sort_keys)[:keep]])
    return batch.take(sort_indices(batch, sort_keys)[:keep])


class TopNOp(PhysicalOperator):
    """Blocking bounded ORDER BY ... OFFSET/LIMIT."""

    #: compact the candidate buffer when it exceeds this multiple of N
    COMPACT_FACTOR = 4

    def __init__(self, ctx: QueryContext, logical: TopN,
                 child: PhysicalOperator) -> None:
        super().__init__(ctx, logical, [child], child.schema)
        self._sort_keys = logical.sort_keys
        self._keep = logical.limit + logical.offset
        self._offset = logical.offset
        self._limit = logical.limit
        self._result: Batch | None = None
        self._emitted = 0
        self._done_building = False

    def _build(self) -> None:
        child = self.children[0]
        candidates: list[Batch] = []
        buffered = 0
        while True:
            self.ctx.token.check()  # per-input-batch cancellation point
            batch = child.next()
            if batch is None:
                break
            self.charge(len(batch) * self.ctx.cost_model.topn_tuple)
            candidates.append(batch)
            buffered += len(batch)
            if buffered > self.COMPACT_FACTOR * self._keep:
                compacted = self._best(candidates)
                candidates = [compacted]
                buffered = len(compacted)
        best = self._best(candidates)
        self._result = best.slice(
            min(self._offset, len(best)),
            min(self._offset + self._limit, len(best)))
        self._done_building = True

    def _best(self, candidates: list[Batch]) -> Batch:
        return top_rows(concat_batches(candidates, schema=self.schema),
                        self._sort_keys, self._keep)

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
