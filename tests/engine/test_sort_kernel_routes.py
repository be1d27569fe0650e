"""The engine's sort-free kernels are invisible to answers and to the
recycler.

Three kernels take sorting off the cold path of grouping and TopN:
``types.dense_codes`` codes an integer key column over a dense range by
counting instead of ``np.unique``'s sort, ``grouping.group_order``
sorts small group codes by radix, and ``topn.top_rows`` drops the rows
that cannot make a TopN's cut before sorting.  Each claims to return
exactly what the sort it replaces returns.  A TPC-H stream and the
time-series dashboard (appends included, so TopN and aggregate results
are extended) replay with the three patched back to their sorting
references and then as they are: result bytes, query records and
costs, cache counters, per-node statistics and cache content — the
cached tables' bytes included — must all be equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnar import types
from repro.engine import grouping, scan, topn
from repro.engine.sort import sort_indices
from twin_replay import dashboard_stream as _dashboard_stream
from twin_replay import replay_fresh as _replay
from twin_replay import tpch_stream as _tpch_stream


def _sorted_top_rows(batch, sort_keys, keep):
    return batch.take(sort_indices(batch, sort_keys)[:keep])


def _sorting_references(monkeypatch):
    monkeypatch.setattr(types, "dense_codes", lambda values: None)
    monkeypatch.setattr(grouping, "group_order",
                        lambda codes: np.argsort(codes, kind="stable"))
    monkeypatch.setattr(topn, "top_rows", _sorted_top_rows)
    monkeypatch.setattr(scan, "top_rows", _sorted_top_rows)


class _Fired:
    """Counts the calls in which a kernel took its sort-free route."""

    def __init__(self, monkeypatch) -> None:
        self.dense = self.filtered = 0
        dense_codes, top_rows = types.dense_codes, topn.top_rows

        def counted_dense(values):
            coded = dense_codes(values)
            self.dense += coded is not None
            return coded

        def counted_top(batch, sort_keys, keep):
            self.filtered += 0 < keep < len(batch)
            return top_rows(batch, sort_keys, keep)

        monkeypatch.setattr(types, "dense_codes", counted_dense)
        monkeypatch.setattr(topn, "top_rows", counted_top)
        monkeypatch.setattr(scan, "top_rows", counted_top)


@pytest.mark.parametrize("stream", [_tpch_stream, _dashboard_stream])
def test_sort_free_kernels_are_invisible(monkeypatch, stream):
    build, ops = stream()
    with monkeypatch.context() as patched:
        _sorting_references(patched)
        want_produced, want_state = _replay(build, ops)
    fired = _Fired(monkeypatch)
    produced, state = _replay(build, ops)
    assert len(produced) == len(want_produced) > 20
    for index, (got, want) in enumerate(zip(produced, want_produced)):
        assert got == want, index
    for key in want_state:
        assert state[key] == want_state[key], key
    # premise: the routes fired, and results were stored
    assert fired.dense > 0 and fired.filtered > 0
    assert state["counters"].admitted > 0 and state["tables"]
