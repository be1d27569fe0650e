"""The sort-free grouping and TopN kernels against the sorts they skip.

``types.key_codes`` codes a dense integer column by counting
(``types.dense_codes``), ``grouping.GroupedRows`` orders small group
codes by radix, and ``topn.top_rows`` sorts only the rows that can make
a TopN's cut.  Each must return *exactly* what the sort returns — every
group order, every float sum's summation order and every TopN row comes
from them, and a recycled answer must be the unrecycled one byte for
byte.  The references here are the sorts themselves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import types as t
from repro.columnar.batch import Batch, concat_batches
from repro.engine.grouping import GroupedRows
from repro.engine.sort import sort_indices
from repro.engine.topn import top_rows

INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def assert_unique_codes(values: np.ndarray) -> None:
    uniques, inverse = t.key_codes(values)
    want_uniques, want_inverse = np.unique(values, return_inverse=True)
    assert uniques.dtype == want_uniques.dtype
    assert inverse.dtype == want_inverse.dtype
    assert uniques.tolist() == want_uniques.tolist()
    assert inverse.tolist() == want_inverse.tolist()


# ----------------------------------------------------------------------
# key_codes == np.unique(return_inverse=True)
# ----------------------------------------------------------------------
INTEGER_DTYPES = ["int8", "int32", "int64", "uint8", "uint16", "uint32",
                  "uint64"]


@st.composite
def integer_columns(draw):
    dtype = np.dtype(draw(st.sampled_from(INTEGER_DTYPES)))
    info = np.iinfo(dtype)
    n = draw(st.integers(0, 60))
    # a dense range somewhere in the dtype, often at its edges
    span = draw(st.integers(0, min(6 * n + 1100, info.max - info.min)))
    lo = draw(st.one_of(st.just(info.min), st.just(info.max - span),
                        st.integers(info.min, info.max - span)))
    offsets = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
    return np.array([lo + offset for offset in offsets], dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(values=integer_columns())
def test_key_codes_equals_np_unique(values):
    assert_unique_codes(values)


@pytest.mark.parametrize("dtype", ["int32", "int64", "uint16", "uint64"])
@pytest.mark.parametrize("rows", [2, 3, 200])
@pytest.mark.parametrize("past_bound", [-1, 0, 1])
def test_range_at_the_dense_bound(dtype, rows, past_bound):
    """Spans one below, at and one above the bound: coded by counting
    up to the bound and by ``np.unique`` past it, alike."""
    span = t.DENSE_SPAN_PER_ROW * rows + t.DENSE_SPAN_SLACK + past_bound
    info = np.iinfo(dtype)
    lo = int(info.min) if info.min < 0 else int(info.max) - span
    values = np.array([lo + span] + [lo] * (rows - 1), dtype=dtype)
    assert_unique_codes(values)
    assert (t.dense_codes(values) is None) == (past_bound > 0)


@pytest.mark.parametrize("values", [
    np.array([], dtype=np.int64),
    np.array([], dtype=np.int32),
    np.array([-5], dtype=np.int64),
    np.array([INT64_MIN, INT64_MAX, 0, INT64_MAX], dtype=np.int64),
    np.array([-3, -1, -3, -2, -1], dtype=np.int8),
    np.array([-128, 127, 0], dtype=np.int8),
    np.array([2 ** 64 - 1, 2 ** 64 - 3, 2 ** 64 - 1], dtype=np.uint64),
    np.array([19000, 18999, 19002], dtype=np.int32),  # DATE day counts
], ids=["empty int64", "empty date", "one row", "int64 min and max",
        "negatives", "int8 edges", "uint64 top", "dates"])
def test_key_codes_edges(values):
    assert_unique_codes(values)


def test_int64_extremes_fall_back_instead_of_overflowing():
    values = np.array([INT64_MIN, INT64_MAX], dtype=np.int64)
    assert t.dense_codes(values) is None


# ----------------------------------------------------------------------
# GroupedRows.order == the int64 stable argsort
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(groups=st.sampled_from([1, 255, 256, 257, 65_535, 65_536, 65_537]),
       rows=st.integers(0, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_group_order_equals_the_int64_stable_argsort(groups, rows, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, groups, rows).astype(np.int64)
    if rows:
        codes[rng.integers(rows)] = groups - 1  # the top code occurs
    grouped = GroupedRows(codes)
    want = np.argsort(codes, kind="stable")
    assert grouped.order.tolist() == want.tolist()
    values = rng.standard_normal(rows)
    assert grouped.representatives(values).tolist() == \
        values[want][grouped.starts].tolist()


# ----------------------------------------------------------------------
# top_rows == sort_indices(...)[:keep]
# ----------------------------------------------------------------------
FLOATS = st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0, np.nan, np.inf])
INTS = st.sampled_from([INT64_MIN, -1, 0, 1, 7, INT64_MAX])
TEXTS = st.sampled_from(["", "a", "b", "ab", "é"])


def object_array(items: list) -> np.ndarray:
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


@st.composite
def ranked_batches(draw):
    n = draw(st.integers(0, 40))
    columns = {
        "f": np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)),
                      dtype=np.float64),
        "i": np.array(draw(st.lists(INTS, min_size=n, max_size=n)),
                      dtype=np.int64),
        "d": np.array(draw(st.lists(st.integers(18000, 18003),
                                    min_size=n, max_size=n)),
                      dtype=np.int32),
        "s": object_array(draw(st.lists(TEXTS, min_size=n,
                                        max_size=n))),
    }
    names = draw(st.permutations(list(columns)))
    keys = [(name, draw(st.booleans()))
            for name in names[:draw(st.integers(1, 3))]]
    keep = draw(st.integers(0, n + 2))
    return Batch(columns), keys, keep


def batch_bytes(batch: Batch) -> list:
    return [(name, batch.column(name).tolist()
             if batch.column(name).dtype == object
             else batch.column(name).tobytes()) for name in batch.names]


@settings(max_examples=400, deadline=None)
@given(case=ranked_batches())
def test_top_rows_equals_the_full_sort_prefix(case):
    batch, keys, keep = case
    want = batch.take(sort_indices(batch, keys)[:keep])
    assert batch_bytes(top_rows(batch, keys, keep)) == batch_bytes(want)


@settings(max_examples=300, deadline=None)
@given(case=ranked_batches(), cuts=st.lists(st.integers(0, 40),
                                            max_size=4))
def test_top_rows_of_chunks_merge_to_the_top_rows(case, cuts):
    """Compaction and the append merge: folding ``top_rows`` over
    consecutive chunks (ties straddling every cut) returns the top rows
    of the whole."""
    batch, keys, keep = case
    bounds = sorted({0, len(batch), *(c for c in cuts if c < len(batch))})
    kept = batch.slice(0, 0)
    for start, stop in zip(bounds, bounds[1:]):
        kept = top_rows(concat_batches([kept, batch.slice(start, stop)]),
                        keys, keep)
    want = batch.take(sort_indices(batch, keys)[:keep])
    assert batch_bytes(kept) == batch_bytes(want)


def test_string_primary_key():
    names = np.array(["b", "a", "c", "a", "b", "a"], dtype=object)
    batch = Batch({"s": names, "n": np.arange(6, dtype=np.int64)})
    top = top_rows(batch, [("s", False), ("n", True)], 2)
    assert top.column("s").tolist() == ["c", "b"]
    assert top.column("n").tolist() == [2, 0]
