"""Hash join: build on the right child, stream-probe the left child.

Supports inner, left/right/full outer, semi, and anti joins with
equality keys plus an optional extra (non-equi) predicate evaluated over
the combined row — the way correlated EXISTS conditions (e.g. TPC-H
Q21's ``l2.l_suppkey <> l1.l_suppkey``) are expressed after unnesting.

The build side becomes one :class:`_BuildIndex`: its keys reduce to one
integer per row (a single integer key as it is, any other shape packed
into radix codes), looked up by address when they are unique and dense
— a table from key to row — and by binary search over the sorted keys
otherwise.  Either way a probe batch costs vectorized passes, no
per-row Python work.

A probe does no work its answer does not need.  Semi and anti joins
without an extra predicate ask only *whether* each probe row matches
and never expand pairs.  When every probe row matched exactly one build
row — a foreign key probing a primary key — the index says so, and the
output reuses the probe batch's column arrays instead of gathering them.

The engine has no NULLs: outer padding uses type defaults (0, 0.0,
empty string).  Consumers that need a match indicator compare against a
key column's default (all generated keys are positive).

Right/full outer joins reuse the same build: a matched-mask over the
build side is updated on every probe batch, and once the probe side is
exhausted the unmatched build rows are emitted in build order with the
probe columns padded — one extra pass over the build table, no second
index.

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
    """Index over the build side's key columns: every key shape becomes
    one integer key per build row, looked up by address when its values
    are unique and dense and by binary search otherwise.

    *The integer key.*  A single integer key column is its own key.
    Every other key shape — several columns, strings, floats — is
    *packed*: each key column factorizes to dense per-column codes
    (``types.key_codes``), the codes radix-combine into one int64 per
    row, and whenever the combined code space would approach int64
    overflow the partial codes re-densify through another
    ``np.unique`` pass.  Probing maps probe values onto the build
    dictionaries by binary search (misses become the never-present code
    -1).  A probe key of another type than a single integer build key
    is compared by value, not converted: a float probe matches only
    where it is integral (``1.5`` finds no ``1``), and a key outside
    the build column's type finds nothing.

    *The lookup.*  When the build keys are unique and dense the index
    is direct-address: an ``int32`` row table over the keys' span
    (``max − min + 1``, taken in Python ints), filled by one scatter
    with no sort.  A probe is then a range mask and one gather.  Dense
    means the memory rule holds: the table holds no more bytes than the
    sorted keys and their ``int64`` order, which is what every other
    build keeps — duplicate keys included — and probes with two
    ``np.searchsorted`` calls; the two are never kept side by side.
    For int64 keys that is a span of at most
    ``types.DENSE_SPAN_PER_ROW`` (4) values per row, the threshold
    integer group keys are coded by counting at.  When every probe row
    of a batch matched exactly one build row, :meth:`matches` says so
    instead of returning the positions ``0 .. n-1``.

    Match order is byte-identical to the per-row dict this replaces:
    probe-major, build matches in build order — the sort is stable and
    packing is injective on build keys.  NaN keys never match (``NaN !=
    NaN`` fails the probe equality check), exactly as dict lookups of
    fresh float objects never matched.
    """

    def __init__(self, data: Batch, keys: list[str]) -> None:
        self.data = data
        self.num_rows = len(data)
        key_arrays = [data.column(k) for k in keys]
        self._single_int = (len(key_arrays) == 1
                            and key_arrays[0].dtype.kind in ("i", "u"))
        if self._single_int:
            values = key_arrays[0]
        else:
            values = self._pack_build(key_arrays)
        #: the build keys' dtype: probe keys are compared in it
        self._domain = values.dtype
        #: dense: the build row per key offset, -1 for none
        self._rows: np.ndarray | None = None
        #: sorted: the sorted keys, and the build rows in that order
        self._sorted: np.ndarray | None = None
        self._order: np.ndarray | None = None
        if not self._index_dense(values):
            self._order = np.argsort(values, kind="stable")
            self._sorted = values[self._order]

    @property
    def dense(self) -> bool:
        """Whether probes look keys up by address."""
        return self._rows is not None

    @property
    def nbytes(self) -> int:
        """Bytes the lookup structure holds (the build rows excluded)."""
        return sum(arr.nbytes for arr in (self._rows, self._sorted,
                                          self._order)
                   if arr is not None)

    def _index_dense(self, values: np.ndarray) -> bool:
        """Build the row table over ``values`` if they are unique and
        the memory rule allows it; whether it was built."""
        rows = len(values)
        if rows == 0 or rows > np.iinfo(np.int32).max:
            return False
        lo, hi = values.min(), values.max()
        span = int(hi) - int(lo) + 1
        # what the sorted index would hold: the keys and an int64 order
        if 4 * span > rows * (values.itemsize + 8):
            return False
        offsets = np.subtract(values, lo, dtype=np.int64, casting="unsafe")
        table = np.full(span, -1, dtype=np.int32)
        table[offsets] = np.arange(rows, dtype=np.int32)
        if np.count_nonzero(table >= 0) < rows:  # a key occurs twice
            return False
        self._rows = table
        self._lo, self._hi = lo, hi
        return True

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
    # probing
    # ------------------------------------------------------------------
    def _probe_keys(self, key_arrays: list[np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The probe keys in the build keys' dtype, and the mask of the
        rows whose key has a value of that dtype (``None``: all do)."""
        if not self._single_int:
            return self._pack_probe(key_arrays), None
        values = key_arrays[0]
        domain = self._domain
        if values.dtype.kind == "f":
            # only an integral float inside the build type's range can
            # equal a build key; NaN fails every comparison
            bound = 2.0 ** (8 * domain.itemsize - (domain.kind == "i"))
            low = -bound if domain.kind == "i" else 0.0
            ok = (values >= low) & (values < bound) \
                & (np.trunc(values) == values)
        elif np.can_cast(values.dtype, domain):
            return values.astype(domain, copy=False), None
        else:
            info = np.iinfo(domain)
            ok = (values >= info.min) & (values <= info.max)
        if ok.all():
            return values.astype(domain), None
        return np.where(ok, values, 0).astype(domain), ok

    def _table_rows(self, keys: np.ndarray, ok: np.ndarray | None
                    ) -> np.ndarray:
        """Dense: each probe key's build row, or -1 — a range mask and
        one gather."""
        assert self._rows is not None
        inside = (keys >= self._lo) & (keys <= self._hi)
        if ok is not None:
            inside &= ok
        offsets = np.subtract(keys, self._lo, dtype=np.int64,
                              casting="unsafe")
        if inside.all():
            return self._rows[offsets]
        outside = ~inside
        offsets[outside] = 0
        rows = self._rows[offsets]
        rows[outside] = -1
        return rows

    def _runs(self, keys: np.ndarray, ok: np.ndarray | None
              ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted: per probe row, where its run of matches starts in the
        sorted keys and how long it is."""
        assert self._sorted is not None
        first = np.searchsorted(self._sorted, keys, side="left")
        counts = np.searchsorted(self._sorted, keys, side="right") - first
        if ok is not None:
            counts[~ok] = 0
        return first, counts

    def matches(self, key_arrays: list[np.ndarray]
                ) -> tuple[np.ndarray | None, np.ndarray]:
        """``(probe_positions, build_positions)`` of every match, or
        ``(None, build_positions)`` when every probe row matched exactly
        one build row — the probe positions are then ``0 .. n-1``."""
        keys, ok = self._probe_keys(key_arrays)
        if self._rows is not None:
            rows = self._table_rows(keys, ok)
            hit = rows >= 0
            if hit.all():
                return None, rows
            probe_pos = np.flatnonzero(hit)
            return probe_pos, rows[probe_pos]
        first, counts = self._runs(keys, ok)
        assert self._order is not None
        if (counts == 1).all():
            return None, self._order[first]
        probe_pos = np.repeat(np.arange(len(counts)), counts)
        if len(probe_pos) == 0:
            return probe_pos, probe_pos.copy()
        # ranges [first, first + count) per probe row, flattened
        ends = np.cumsum(counts)
        sorted_pos = np.arange(ends[-1]) \
            + np.repeat(first - (ends - counts), counts)
        return probe_pos, self._order[sorted_pos]

    def matched(self, key_arrays: list[np.ndarray]) -> np.ndarray:
        """Per probe row: whether any build row matches it."""
        keys, ok = self._probe_keys(key_arrays)
        if self._rows is not None:
            return self._table_rows(keys, ok) >= 0
        _, counts = self._runs(keys, ok)
        return counts > 0

    def probe(self, key_arrays: list[np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray]:
        """Return (probe_positions, build_positions) for all matches.

        ``probe_positions`` repeats a probe row index once per matching
        build row; both arrays are aligned.
        """
        probe_pos, build_pos = self.matches(key_arrays)
        if probe_pos is None:
            probe_pos = np.arange(len(build_pos))
        return probe_pos, build_pos


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
        kind = self._kind
        if kind in ("semi", "anti") and self._extra is None:
            # decided per probe row: no pair is expanded
            matched = self._index.matched(key_arrays)
            return self._keep(batch, matched if kind == "semi"
                              else ~matched)
        probe_pos, build_pos = self._index.matches(key_arrays)

        if self._extra is not None and len(build_pos) > 0:
            combined = self._combine(batch, probe_pos, build_pos)
            keep = np.asarray(self._extra.eval(combined), dtype=bool)
            if not keep.all():
                probe_pos = np.flatnonzero(keep) if probe_pos is None \
                    else probe_pos[keep]
                build_pos = build_pos[keep]

        if kind in ("right", "full"):
            assert self._build_matched is not None
            self._build_matched[build_pos] = True
        if kind in ("inner", "right"):
            # right outer emits matched pairs per batch; its padded
            # build-side tail streams after the probe side is exhausted
            if len(build_pos) == 0:
                return None
            return self._combine(batch, probe_pos, build_pos)
        if probe_pos is None:  # every probe row matched exactly once
            if kind == "semi":
                return batch
            if kind == "anti":
                return None
            return self._combine(batch, probe_pos, build_pos)
        matched_mask = np.zeros(len(batch), dtype=bool)
        matched_mask[probe_pos] = True
        if kind == "semi":
            return self._keep(batch, matched_mask)
        if kind == "anti":
            return self._keep(batch, ~matched_mask)
        # left/full outer: matched rows expanded + unmatched probe rows
        # padded (full outer adds its build-side tail at end of stream)
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

    @staticmethod
    def _keep(batch: Batch, mask: np.ndarray) -> Batch | None:
        if mask.all():
            return batch
        if not mask.any():
            return None
        return batch.filter(mask)

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

    def _combine(self, batch: Batch, probe_pos: np.ndarray | None,
                 build_pos: np.ndarray) -> Batch:
        assert self._index is not None
        if probe_pos is None:  # each probe row once, in order
            columns = dict(batch.arrays)
        else:
            columns = {name: array[probe_pos]
                       for name, array in batch.arrays.items()}
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
