"""Every string key goes through ``types.string_codes`` — and nothing
the recycler can observe depends on which kernel coded or sized it.

Two guards for the STRING kernels in ``columnar/types.py``:

* no operator may fall back to ``np.unique`` on an object array (a
  Python-compare sort of every row): each string-keyed shape runs with
  that call patched to raise, so a missed call site fails here;
* a TPC-H mini-stream and the time-series dashboard replay identically
  — result bytes, query records and costs, cache counters, per-node
  statistics, cache content — under the engine's kernels and under the
  naive per-element references they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64, STRING, types
from repro.workloads import timeseries, tpch
from twin_replay import quiet_config, replay


# ----------------------------------------------------------------------
# no object-dtype np.unique on any string-keyed path
# ----------------------------------------------------------------------
@pytest.fixture
def no_object_unique(monkeypatch):
    real = np.unique

    def guarded(ar, *args, **kwargs):
        if np.asarray(ar).dtype == object:
            raise AssertionError("np.unique called on an object array")
        return real(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", guarded)


@pytest.fixture
def db():
    database = Database(RecyclerConfig(mode="off"))
    database.register_table("pets", Table.from_rows(
        ["name", "kind", "owner", "age"], [STRING, STRING, STRING, INT64],
        [("rex", "dog", "ann", 3), ("tom", "cat", "bob", 5),
         ("ace", "dog", "ann", 1), ("kit", "cat", "ann", 2),
         ("zed", "eel", "cy", 9), ("bo", "dog", "bob", 4)]))
    database.register_table("owners", Table.from_rows(
        ["owner", "city", "score"], [STRING, STRING, FLOAT64],
        [("ann", "york", 1.5), ("bob", "bath", 2.5), ("dee", "ely", 0.5)]))
    yield database
    database.close()


CASES = [
    ("SELECT kind, count(*) AS n FROM pets GROUP BY kind",
     {("cat", 2), ("dog", 3), ("eel", 1)}),
    ("SELECT kind, owner, max(age) AS a FROM pets GROUP BY kind, owner",
     {("cat", "ann", 2), ("cat", "bob", 5), ("dog", "ann", 3),
      ("dog", "bob", 4), ("eel", "cy", 9)}),
    ("SELECT name FROM pets ORDER BY name",
     [("ace",), ("bo",), ("kit",), ("rex",), ("tom",), ("zed",)]),
    ("SELECT kind, name FROM pets ORDER BY kind DESC, name",
     [("eel", "zed"), ("dog", "ace"), ("dog", "bo"), ("dog", "rex"),
      ("cat", "kit"), ("cat", "tom")]),
    ("SELECT owner, name FROM pets ORDER BY owner DESC, name DESC LIMIT 2",
     [("cy", "zed"), ("bob", "tom")]),
    ("SELECT kind, name FROM pets ORDER BY kind, name LIMIT 3",
     [("cat", "kit"), ("cat", "tom"), ("dog", "ace")]),
    ("SELECT DISTINCT kind, owner FROM pets",
     {("dog", "ann"), ("cat", "bob"), ("cat", "ann"), ("eel", "cy"),
      ("dog", "bob")}),
    ("SELECT owner, count(DISTINCT kind) AS k FROM pets GROUP BY owner",
     {("ann", 2), ("bob", 2), ("cy", 1)}),
    ("SELECT count(DISTINCT kind) AS k FROM pets", [(3,)]),
    ("SELECT name, city FROM pets JOIN owners"
     " ON pets.owner = owners.owner ORDER BY name",
     [("ace", "york"), ("bo", "bath"), ("kit", "york"), ("rex", "york"),
      ("tom", "bath")]),
    ("SELECT name FROM pets WHERE owner IN (SELECT owner FROM owners"
     " WHERE score > 1.0) AND kind = 'dog' ORDER BY name",
     [("ace",), ("bo",), ("rex",)]),
]


@pytest.mark.parametrize("sql, expected", CASES,
                         ids=[sql[:48] for sql, _ in CASES])
def test_string_keyed_shapes_never_reach_np_unique(no_object_unique, db,
                                                   sql, expected):
    rows = [tuple(row) for row in db.sql(sql).table.to_rows()]
    if isinstance(expected, set):
        assert len(rows) == len(expected) and set(rows) == expected
    else:
        assert rows == expected


def test_the_guard_trips_on_an_object_array(no_object_unique):
    with pytest.raises(AssertionError):
        np.unique(np.array(["a", "b"], dtype=object))


# ----------------------------------------------------------------------
# replay under the kernels == replay under their naive references
# ----------------------------------------------------------------------
def _naive_nbytes(values: np.ndarray, dtype) -> int:
    if dtype is STRING:
        return int(sum(len(v) for v in values))
    return int(values.nbytes)


def _naive_codes(values: np.ndarray):
    return np.unique(values, return_inverse=True)


def _tpch_stream():
    streams = tpch.generate_streams(2, 0.002, seed=5)
    ops = [query.sql for stream in streams for query in list(stream) * 2]
    ops.insert(len(ops) // 2, lambda db: db.maintain())
    return (lambda: Database(quiet_config(256 * 1024),
                             catalog=tpch.build_catalog(0.002, seed=3)),
            ops)


def _dashboard_stream():
    initial, batch = 3000, 120
    ops, rows = [], initial
    for cycle in range(3):
        ops.append(lambda db, cycle=cycle, rows=rows: db.append_rows(
            "metrics", timeseries._batch(rows, batch, 7 + cycle)))
        rows += batch
        ops.extend([timeseries.range_scan(rows - batch, rows),
                    timeseries.sensor_rollup(),
                    timeseries.site_rollup(rows),
                    timeseries.alerts(rows),
                    timeseries.hot_sensors(rows),
                    timeseries.site_rollup(initial)] * 2)
    return (lambda: Database(quiet_config(64 * 1024 * 1024),
                             catalog=timeseries.build_catalog(
                                 initial, seed=7)),
            ops)


@pytest.mark.parametrize("stream", [_tpch_stream, _dashboard_stream])
def test_kernels_are_invisible_to_results_costs_and_the_cache(
        monkeypatch, stream):
    build, ops = stream()
    db = build()
    try:
        produced, state = replay(db, ops)
    finally:
        db.close()
    monkeypatch.setattr(types, "array_nbytes", _naive_nbytes)
    monkeypatch.setattr(types, "string_codes", _naive_codes)
    db = build()
    try:
        want_produced, want_state = replay(db, ops)
    finally:
        db.close()
    assert len(produced) == len(want_produced) > 20
    for index, (got, want) in enumerate(zip(produced, want_produced)):
        assert got == want, index
    for key in want_state:
        assert state[key] == want_state[key], key
    # premise: results were stored and sized, and strings were among them
    assert state["counters"].admitted > 0
    assert state["used"] > 0
