"""A stored result's size is the sum of its batches' sizes.

A store operator counts every batch it retains (``Batch.nbytes``, which
the operators memoize as they account ``bytes_out``) and hands that sum
to ``Table.from_batches`` as the table's ``nbytes``, instead of counting
every STRING character of the merged table again.  That is only sound
if the two counts agree exactly — the recycler cache budgets and the
benefit metric read this number.  Here the table's own recount is the
reference, over STRING and fixed-width columns, empty batches and
batches sliced out of larger ones.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.columnar import types as t
from repro.columnar.batch import Batch
from repro.columnar.table import Schema, Table

SCHEMA = Schema(["s", "i", "f", "b", "d"],
                [t.STRING, t.INT64, t.FLOAT64, t.BOOL, t.DATE])

TEXT = st.one_of(st.text(max_size=5),
                 st.sampled_from(["", "a", "\U0001f600", "é"]))


@st.composite
def batches(draw):
    rows = draw(st.integers(0, 12))
    strings = np.empty(rows, dtype=object)
    strings[:] = draw(st.lists(TEXT, min_size=rows, max_size=rows))
    batch = Batch({
        "s": strings,
        "i": np.array(draw(st.lists(st.integers(-2**40, 2**40),
                                    min_size=rows, max_size=rows)),
                      dtype=np.int64),
        "f": np.array(draw(st.lists(st.floats(allow_nan=False),
                                    min_size=rows, max_size=rows)),
                      dtype=np.float64),
        "b": np.array(draw(st.lists(st.booleans(), min_size=rows,
                                    max_size=rows)), dtype=bool),
        "d": np.array(draw(st.lists(st.integers(0, 20000), min_size=rows,
                                    max_size=rows)), dtype=np.int32),
    })
    if rows and draw(st.booleans()):
        start = draw(st.integers(0, rows))
        batch = batch.slice(start, draw(st.integers(start, rows)))
    return batch


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(batches(), max_size=6))
def test_table_nbytes_is_the_sum_of_its_batches(parts):
    total = sum(batch.nbytes() for batch in parts)
    recounted = Table.from_batches(SCHEMA, parts).nbytes()
    assert recounted == total
    kept = Table.from_batches(SCHEMA, parts, nbytes=total)
    assert kept.nbytes() == total
    assert kept.num_rows == sum(len(batch) for batch in parts)
