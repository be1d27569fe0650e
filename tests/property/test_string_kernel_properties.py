"""The two STRING kernels against the per-element code they replaced.

``types.array_nbytes`` counts a STRING column's characters with one
join and ``types.string_codes`` codes its values with a set, a sort of
the distinct values and a dict lookup per row.  Both must be *exact*:
every ``bytes_out`` / ``size_bytes`` the recycler's benefit metric
reads, and every group, sort and join order, comes from them.  The
references here are the replaced implementations, kept as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import types as t


def reference_nbytes(values: np.ndarray) -> int:
    return int(sum(len(v) for v in values))


def object_array(items) -> np.ndarray:
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


# empty strings, non-ASCII, astral-plane characters and long runs of
# few distinct values (the group-key shape) all occur
TEXT = st.one_of(st.text(max_size=6),
                 st.sampled_from(["", "a", "b", "ab", "\U0001f600", "é"]))
COLUMN = st.lists(TEXT, max_size=40)


@settings(max_examples=200, deadline=None)
@given(items=COLUMN, as_numpy_str=st.booleans())
def test_string_codes_equals_np_unique(items, as_numpy_str):
    if as_numpy_str:
        items = [np.str_(v) for v in items]
    values = object_array(items)
    uniques, inverse = t.string_codes(values)
    want_uniques, want_inverse = np.unique(values, return_inverse=True)
    assert uniques.dtype == object and inverse.dtype == np.int64
    assert uniques.tolist() == want_uniques.tolist()
    assert inverse.tolist() == want_inverse.tolist()
    assert uniques[inverse].tolist() == items
    assert t.key_codes(values)[1].tolist() == want_inverse.tolist()


@settings(max_examples=200, deadline=None)
@given(items=COLUMN, as_numpy_str=st.booleans())
def test_string_nbytes_equals_the_per_element_sum(items, as_numpy_str):
    if as_numpy_str:
        items = [np.str_(v) for v in items]
    values = object_array(items)
    assert t.array_nbytes(values, t.STRING) == reference_nbytes(values)


@settings(max_examples=25, deadline=None)
@given(items=st.lists(TEXT, min_size=1, max_size=30),
       chunk=st.integers(1, 7))
def test_string_nbytes_is_chunk_independent(items, chunk):
    values = object_array(items)
    saved = t._NBYTES_CHUNK_ROWS
    t._NBYTES_CHUNK_ROWS = chunk
    try:
        assert t.array_nbytes(values, t.STRING) == reference_nbytes(values)
    finally:
        t._NBYTES_CHUNK_ROWS = saved


def test_fixed_width_unicode_arrays_count_the_same():
    values = np.array(["ab", "", "cde"])  # dtype <U3, inferred STRING
    assert t.array_nbytes(values, t.infer_type(values)) == 5


@pytest.mark.parametrize("items", [
    ["ab", b"cde"],          # has a length: counted as today
    ["ab", ("x", "y", "z")],
])
def test_non_str_elements_with_a_length_count_as_before(items):
    values = object_array(items)
    assert t.array_nbytes(values, t.STRING) == reference_nbytes(values)


@pytest.mark.parametrize("items", [["ab", None], [7, "ab"]])
def test_non_str_elements_without_a_length_raise_as_before(items):
    values = object_array(items)
    with pytest.raises(TypeError) as want:
        reference_nbytes(values)
    with pytest.raises(TypeError) as got:
        t.array_nbytes(values, t.STRING)
    assert str(got.value) == str(want.value)


def test_key_coding_of_unorderable_elements_raises_as_before():
    values = object_array(["ab", 7])
    with pytest.raises(TypeError):
        np.unique(values, return_inverse=True)
    with pytest.raises(TypeError):
        t.string_codes(values)


def test_key_codes_leaves_other_dtypes_to_numpy():
    values = np.array([3.5, 1.0, 3.5, np.nan])
    uniques, inverse = t.key_codes(values)
    want_uniques, want_inverse = np.unique(values, return_inverse=True)
    assert uniques.tobytes() == want_uniques.tobytes()
    assert inverse.tolist() == want_inverse.tolist()
