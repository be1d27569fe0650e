"""Hash join: build on the right child, stream-probe the left child.

Supports inner, left/right/full outer, semi, and anti joins with
equality keys plus an optional extra (non-equi) predicate evaluated over
the combined row — the way correlated EXISTS conditions (e.g. TPC-H
Q21's ``l2.l_suppkey <> l1.l_suppkey``) are expressed after unnesting.

The engine has no NULLs: outer padding uses type defaults (0, 0.0,
empty string).  Consumers that need a match indicator compare against a
key column's default (all generated keys are positive).

Right/full outer joins reuse the same radix/searchsorted build: a
matched-mask over the build side is updated on every probe batch, and
once the probe side is exhausted the unmatched build rows are emitted in
build order with the probe columns padded — one extra pass over the
build table, no second index.

Cancellation: both the build and the probe loop are per-batch
cancellation points, so a cancelled query aborts mid-build (input
batches consumed so far are dropped) or mid-probe within one batch.
"""

from __future__ import annotations

import numpy as np

from ..columnar import types as t
from ..columnar.batch import Batch, concat_batches
from ..columnar.table import Schema
from ..plan.logical import Join
from .base import PhysicalOperator, QueryContext


def _pad_value(dtype: t.DataType):
    if dtype is t.STRING:
        return ""
    return 0


#: re-densify packed key codes before the code space reaches this bound
#: (int64 headroom: the next column's cardinality can never push a
#: re-densified code — at most ``num_rows`` distinct values — past 2^63).
_RADIX_LIMIT = 2 ** 53


class _BuildIndex:
    """Hash index over the build side's key columns.

    A single integer key sorts the build values once (stable) and
    probes by binary search.  Every other key shape — multi-column,
    strings, floats, dates — is *packed* onto that same path: each key
    column factorizes to dense per-column codes (``types.key_codes``), the
    codes radix-combine into one int64 per row, and whenever the
    combined code space would approach int64 overflow the partial codes
    re-densify through another ``np.unique`` pass.  Probing maps probe
    values onto the build dictionaries by binary search (misses become
    the never-present code -1) and reuses the sorted probe.

    Match order is byte-identical to the per-row dict this replaces:
    probe-major, build matches in build order — the final argsort is
    stable and packing is injective on build keys.  NaN keys never
    match (``NaN != NaN`` fails the probe equality check), exactly as
    dict lookups of fresh float objects never matched.
    """

    def __init__(self, data: Batch, keys: list[str]) -> None:
        self.data = data
        self.num_rows = len(data)
        key_arrays = [data.column(k) for k in keys]
        self._single_int = (len(key_arrays) == 1
                            and key_arrays[0].dtype.kind in ("i", "u"))
        if self._single_int:
            values = key_arrays[0].astype(np.int64)
        else:
            values = self._pack_build(key_arrays)
        self._order = np.argsort(values, kind="stable")
        self._sorted = values[self._order]

    # ------------------------------------------------------------------
    # composite-key packing
    # ------------------------------------------------------------------
    def _pack_build(self, key_arrays: list[np.ndarray]) -> np.ndarray:
        #: per column: the sorted build-side value dictionary.
        self._uniques: list[np.ndarray] = []
        #: per column after the first: the sorted partial-code
        #: dictionary of a re-densify step, or None when none was needed.
        self._redensify: list[np.ndarray | None] = []
        codes: np.ndarray | None = None
        card = 1
        for arr in key_arrays:
            uniques, col_codes = t.key_codes(arr)
            col_codes = col_codes.astype(np.int64, copy=False)
            self._uniques.append(uniques)
            col_card = max(len(uniques), 1)
            if codes is None:
                codes, card = col_codes, col_card
                continue
            if card * col_card >= _RADIX_LIMIT:
                packed = np.unique(codes)
                codes = np.searchsorted(packed, codes)
                card = len(packed)
                self._redensify.append(packed)
            else:
                self._redensify.append(None)
            codes = codes * col_card + col_codes
            card *= col_card
        if codes is None:  # pragma: no cover - joins always have keys
            codes = np.zeros(self.num_rows, dtype=np.int64)
        return codes

    def _pack_probe(self, key_arrays: list[np.ndarray]) -> np.ndarray:
        n = len(key_arrays[0])
        valid = np.ones(n, dtype=bool)
        codes: np.ndarray | None = None
        for i, arr in enumerate(key_arrays):
            uniques = self._uniques[i]
            col_card = max(len(uniques), 1)
            if len(uniques):
                idx = np.searchsorted(uniques, arr)
                clipped = np.minimum(idx, len(uniques) - 1)
                valid &= (idx < len(uniques)) \
                    & np.asarray(uniques[clipped] == arr, dtype=bool)
                col_codes = clipped.astype(np.int64, copy=False)
            else:  # empty build side: nothing can match
                valid[:] = False
                col_codes = np.zeros(n, dtype=np.int64)
            if codes is None:
                codes = col_codes
                continue
            packed = self._redensify[i - 1]
            if packed is not None:
                idx = np.searchsorted(packed, codes)
                clipped = np.minimum(idx, len(packed) - 1)
                valid &= (idx < len(packed)) & (packed[clipped] == codes)
                codes = clipped
            codes = codes * col_card + col_codes
        assert codes is not None
        # -1 never occurs among (non-negative) build codes: a probe row
        # that missed any per-column dictionary finds no match.
        return np.where(valid, codes, -1)

    # ------------------------------------------------------------------
    def probe(self, key_arrays: list[np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray]:
        """Return (probe_positions, build_positions) for all matches.

        ``probe_positions`` repeats a probe row index once per matching
        build row; both arrays are aligned.
        """
        if self._single_int:
            values = key_arrays[0].astype(np.int64)
        else:
            values = self._pack_probe(key_arrays)
        lo = np.searchsorted(self._sorted, values, side="left")
        hi = np.searchsorted(self._sorted, values, side="right")
        counts = hi - lo
        probe_pos = np.repeat(np.arange(len(values)), counts)
        if len(probe_pos) == 0:
            return probe_pos, probe_pos.copy()
        # ranges [lo, hi) per probe row, flattened
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]])
        within = np.arange(counts.sum()) - np.repeat(offsets, counts)
        build_sorted_pos = np.repeat(lo, counts) + within
        return probe_pos, self._order[build_sorted_pos]


class HashJoinOp(PhysicalOperator):
    """Pipelined hash join (blocking on the build/right side)."""

    def __init__(self, ctx: QueryContext, logical: Join,
                 left: PhysicalOperator, right: PhysicalOperator) -> None:
        schema = logical.output_schema(ctx.catalog)
        super().__init__(ctx, logical, [left, right], schema)
        self._kind = logical.kind
        self._left_keys = logical.left_keys
        self._right_keys = logical.right_keys
        self._extra = logical.extra
        self._index: _BuildIndex | None = None
        self._right_schema: Schema = right.schema
        self._left_schema: Schema = left.schema
        #: right/full outer: which build rows matched any probe row.
        self._build_matched: np.ndarray | None = None
        self._tail_emitted = False

    # ------------------------------------------------------------------
    def _build(self) -> None:
        right = self.children[1]
        batches = []
        while True:
            self.ctx.token.check()  # per-build-batch cancellation point
            batch = right.next()
            if batch is None:
                break
            self.charge(len(batch) * self.ctx.cost_model.join_build_tuple)
            batches.append(batch)
        data = concat_batches(batches, schema=self._right_schema)
        self._index = _BuildIndex(data, self._right_keys)
        if self._kind in ("right", "full"):
            self._build_matched = np.zeros(self._index.num_rows,
                                           dtype=bool)

    # ------------------------------------------------------------------
    def _next(self) -> Batch | None:
        if self._index is None:
            self._build()
        assert self._index is not None
        left = self.children[0]
        while True:
            self.ctx.token.check()  # per-probe-batch cancellation point
            batch = left.next()
            if batch is None:
                return self._right_tail()
            self.charge(len(batch) * self.ctx.cost_model.join_probe_tuple)
            result = self._probe_batch(batch)
            if result is not None and len(result) > 0:
                self.charge(len(result)
                            * self.ctx.cost_model.join_output_tuple)
                return result
            # empty output for this probe batch: keep pulling

    def _probe_batch(self, batch: Batch) -> Batch | None:
        assert self._index is not None
        key_arrays = [batch.column(k) for k in self._left_keys]
        probe_pos, build_pos = self._index.probe(key_arrays)

        if self._extra is not None and len(probe_pos) > 0:
            combined = self._combine(batch, probe_pos, build_pos)
            keep = np.asarray(self._extra.eval(combined), dtype=bool)
            probe_pos, build_pos = probe_pos[keep], build_pos[keep]

        kind = self._kind
        if kind in ("right", "full"):
            assert self._build_matched is not None
            self._build_matched[build_pos] = True
        if kind in ("inner", "right"):
            # right outer emits matched pairs per batch; its padded
            # build-side tail streams after the probe side is exhausted
            if len(probe_pos) == 0:
                return None
            return self._combine(batch, probe_pos, build_pos)
        if kind == "semi":
            matched = np.unique(probe_pos)
            if len(matched) == 0:
                return None
            return batch.take(matched)
        if kind == "anti":
            matched_mask = np.zeros(len(batch), dtype=bool)
            matched_mask[probe_pos] = True
            if matched_mask.all():
                return None
            return batch.filter(~matched_mask)
        # left/full outer: matched rows expanded + unmatched probe rows
        # padded (full outer adds its build-side tail at end of stream)
        matched_mask = np.zeros(len(batch), dtype=bool)
        matched_mask[probe_pos] = True
        pieces: list[Batch] = []
        if len(probe_pos) > 0:
            pieces.append(self._combine(batch, probe_pos, build_pos))
        unmatched = np.flatnonzero(~matched_mask)
        if len(unmatched) > 0:
            pieces.append(self._pad(batch.take(unmatched)))
        if not pieces:
            return None
        if len(pieces) == 1:
            return pieces[0]
        return concat_batches(pieces)

    def _right_tail(self) -> Batch | None:
        """Unmatched build rows, probe columns padded — emitted once,
        after the probe side is exhausted (right/full outer only)."""
        if self._kind not in ("right", "full") or self._tail_emitted:
            return None
        self._tail_emitted = True
        assert self._index is not None and self._build_matched is not None
        unmatched = np.flatnonzero(~self._build_matched)
        if len(unmatched) == 0:
            return None
        self.charge(len(unmatched)
                    * self.ctx.cost_model.join_output_tuple)
        n = len(unmatched)
        columns: dict[str, np.ndarray] = {}
        for name in self._left_schema.names:
            dtype = self._left_schema.type_of(name)
            if dtype is t.STRING:
                arr = np.empty(n, dtype=object)
                arr[:] = ""
            else:
                arr = np.full(n, _pad_value(dtype),
                              dtype=dtype.numpy_dtype)
            columns[name] = arr
        for name in self._right_schema.names:
            columns[name] = self._index.data.column(name)[unmatched]
        return Batch(columns)

    def _combine(self, batch: Batch, probe_pos: np.ndarray,
                 build_pos: np.ndarray) -> Batch:
        assert self._index is not None
        columns: dict[str, np.ndarray] = {}
        for name in batch.names:
            columns[name] = batch.column(name)[probe_pos]
        for name in self._right_schema.names:
            columns[name] = self._index.data.column(name)[build_pos]
        # probe_pos and build_pos are aligned: one length by construction
        return Batch._aligned(columns)

    def _pad(self, probe_rows: Batch) -> Batch:
        columns = dict(probe_rows.arrays)
        n = len(probe_rows)
        for name in self._right_schema.names:
            dtype = self._right_schema.type_of(name)
            if dtype is t.STRING:
                arr = np.empty(n, dtype=object)
                arr[:] = ""
            else:
                arr = np.full(n, _pad_value(dtype),
                              dtype=dtype.numpy_dtype)
            columns[name] = arr
        return Batch(columns)
