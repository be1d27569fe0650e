"""The engine's cold join and filter kernels are invisible to answers
and to the recycler.

Four routes skip work on the cold path of joins and filters: the build
index looks unique dense integer keys up by address instead of binary
search (``_BuildIndex._index_dense``); a probe in which every row
matched exactly once reuses the probe batch's columns instead of
gathering them (``_BuildIndex.matches`` returning no probe positions);
semi and anti joins ask per probe row whether it matched instead of
expanding pairs (``_BuildIndex.matched``); and ``And`` / ``Or``
evaluate each operand only on the rows still undecided.  Each claims to change nothing but the work done.  A TPC-H
stream and the time-series dashboard (appends included) replay with the
four patched back to the old code and then as they are: result bytes,
query records and costs, cache counters, per-node statistics and cache
content — the cached tables' bytes included — must all be equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.join import _BuildIndex
from repro.expr import nodes
from test_sort_kernel_routes import _dashboard_stream, _replay, _tpch_stream


def _full_and(self, batch):
    result = np.asarray(self.args[0].eval(batch), dtype=bool)
    for arg in self.args[1:]:
        result = result & np.asarray(arg.eval(batch), dtype=bool)
    return result


def _full_or(self, batch):
    result = np.asarray(self.args[0].eval(batch), dtype=bool)
    for arg in self.args[1:]:
        result = result | np.asarray(arg.eval(batch), dtype=bool)
    return result


def _old_routes(monkeypatch):
    matches = _BuildIndex.matches

    def gathered(self, key_arrays):
        probe_pos, build_pos = matches(self, key_arrays)
        if probe_pos is None:
            probe_pos = np.arange(len(build_pos))
        return probe_pos, build_pos

    def expanded(self, key_arrays):
        probe_pos, _ = self.probe(key_arrays)
        mask = np.zeros(len(key_arrays[0]), dtype=bool)
        mask[probe_pos] = True
        return mask

    monkeypatch.setattr(_BuildIndex, "_index_dense", lambda self, v: False)
    monkeypatch.setattr(_BuildIndex, "matches", gathered)
    monkeypatch.setattr(_BuildIndex, "matched", expanded)
    monkeypatch.setattr(nodes.And, "eval", _full_and)
    monkeypatch.setattr(nodes.Or, "eval", _full_or)


class _Fired:
    """Counts the calls in which a kernel took its new route."""

    def __init__(self, monkeypatch) -> None:
        self.dense = self.uncopied = self.matched = self.narrowed = 0
        index_dense, matches = _BuildIndex._index_dense, _BuildIndex.matches
        matched = _BuildIndex.matched

        def counted_dense(index, values):
            dense = index_dense(index, values)
            self.dense += dense
            return dense

        def counted_matches(index, key_arrays):
            probe_pos, build_pos = matches(index, key_arrays)
            self.uncopied += probe_pos is None and len(build_pos) > 0
            return probe_pos, build_pos

        def counted_matched(index, key_arrays):
            self.matched += 1
            return matched(index, key_arrays)

        fired = self

        class Narrowed(nodes.Batch):
            """What ``And`` / ``Or`` narrow a batch with."""

            @classmethod
            def _aligned(cls, columns):
                fired.narrowed += 1
                return super()._aligned(columns)

        monkeypatch.setattr(_BuildIndex, "_index_dense", counted_dense)
        monkeypatch.setattr(_BuildIndex, "matches", counted_matches)
        monkeypatch.setattr(_BuildIndex, "matched", counted_matched)
        monkeypatch.setattr(nodes, "Batch", Narrowed)


@pytest.mark.parametrize("stream", [_tpch_stream, _dashboard_stream])
def test_join_and_filter_kernels_are_invisible(monkeypatch, stream):
    build, ops = stream()
    with monkeypatch.context() as patched:
        _old_routes(patched)
        want_produced, want_state = _replay(build, ops)
    fired = _Fired(monkeypatch)
    produced, state = _replay(build, ops)
    assert len(produced) == len(want_produced) > 20
    for index, (got, want) in enumerate(zip(produced, want_produced)):
        assert got == want, index
    for key in want_state:
        assert state[key] == want_state[key], key
    # premise: the routes fired, and results were stored
    assert fired.dense > 0 and fired.uncopied > 0 and fired.matched > 0
    if stream is _tpch_stream:
        assert fired.narrowed > 0
    assert state["counters"].admitted > 0 and state["tables"]
