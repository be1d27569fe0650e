"""The ``ts_append`` dashboard against SQLite, an oracle outside the engine.

Every other check of a recycled answer compares the engine with itself
(recycler on against recycler off).  Here stdlib ``sqlite3`` holds the
same ``metrics`` and ``sensors`` rows — loaded up front, then each
appended batch as it lands — and every statement of the benchmark's
``ts_append`` op list, plus a few that read the appended rows, is
checked against it three ways: with the recycler off, as the first run
after an append (cold, or extended over the appended rows) and as a
repeat (warm).  A divergence in the first names the engine, in the
other two the recycler.

After each append every earlier cycle's moving-window texts are issued
again: their bounds now cut the data, while the same statement's memo —
and the windowless node it named, extended since — was made when the
bound covered every row.

Integers and strings must match exactly; float aggregates to 1e-9
relative, because SQLite sums in another order.
"""

from __future__ import annotations

import math
import sqlite3
import sys
from pathlib import Path

import pytest

from repro.workloads import timeseries as ts

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import APPEND, WORKLOADS  # noqa: E402

SIZE = 0.04
RELATIVE = 1e-9

#: beside the dashboard, whose stable statements read only rows from
#: before the first append: statements whose extension over each
#: append merges new rows — a grouped aggregate, a join rollup, and a
#: row-level select
GROWING = [
    ts.range_scan(0, 10 ** 7),
    ts.site_rollup(10 ** 7),
    "SELECT ts, sensor, temp FROM metrics WHERE status = 'crit'",
]


def moving_windows(bounds: list[int], batch: int) -> list[str]:
    """The dashboard's texts whose window ends at the row count: one set
    per cycle so far — each earlier cycle's bound now cuts the data,
    the last one covers it (and is dropped as a window) — plus a set
    whose bound lies inside the last batch."""
    inside = bounds[-1] - batch // 2
    return [text for rows in bounds for text in (
        ts.range_scan(rows - batch, rows), ts.site_rollup(rows),
        ts.alerts(rows), ts.hot_sensors(rows))] + [
        ts.site_rollup(inside), ts.alerts(inside), ts.hot_sensors(inside)]


def load(connection: sqlite3.Connection, name: str, table) -> None:
    columns = [table.column(column).tolist()
               for column in table.schema.names]
    marks = ", ".join("?" * len(columns))
    connection.executemany(f"INSERT INTO {name} VALUES ({marks})",
                           zip(*columns))


def oracle(db) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE metrics (ts INTEGER, sensor INTEGER,"
                       " temp REAL, status TEXT)")
    connection.execute("CREATE TABLE sensors (sensor INTEGER, site TEXT,"
                       " floor INTEGER)")
    for name in ("metrics", "sensors"):
        load(connection, name, db.catalog.table(name))
    return connection


def engine_rows(table) -> list[tuple]:
    return list(zip(*[table.column(name).tolist()
                      for name in table.schema.names]))


def same_rows(got: list[tuple], expected: list[tuple],
              ordered: bool) -> bool:
    if not ordered:
        got, expected = sorted(got), sorted(expected)
    if len(got) != len(expected):
        return False
    for mine, theirs in zip(got, expected):
        for a, b in zip(mine, theirs):
            if isinstance(a, float) or isinstance(b, float):
                if not math.isclose(a, b, rel_tol=RELATIVE):
                    return False
            elif a != b or type(a) is not type(b):
                return False
    return True


@pytest.mark.parametrize("seed", [7, 13])
def test_dashboard_matches_sqlite_off_cold_and_warm(seed):
    workload = WORKLOADS["ts_append"]
    off = workload.build(seed, SIZE, "off")
    spec = workload.build(seed, SIZE, "spec")
    connection = oracle(off)
    checked = {"off": 0, "cold": 0, "warm": 0}
    seen: set[str] = set()
    bounds: list[int] = []

    def check(text: str) -> None:
        expected = connection.execute(text).fetchall()
        ordered = "ORDER BY" in text
        leg = "warm" if text in seen else "cold"
        seen.add(text)
        for label, db in (("off", off), (leg, spec)):
            got = engine_rows(db.sql(text).table)
            assert same_rows(got, expected, ordered), (label, text)
            checked[label] += 1

    try:
        for op in workload.make_ops(seed, SIZE):
            if op.kind != APPEND:
                check(op.text)
                continue
            batch = ts._batch(op.start_row, op.rows, seed + op.batch)
            for db in (off, spec):
                db.append_rows("metrics", batch)
            load(connection, "metrics", batch)
            seen.clear()
            rows = op.start_row + op.rows
            bounds.append(rows)
            for text in (GROWING + moving_windows(bounds, op.rows)) * 2:
                check(text)
        assert spec.summary()["catalog"]["entries_extended"] > 0
        assert spec.summary()["optimizer"]["conjuncts_proved"] > 0
        assert min(checked.values()) > 0
    finally:
        connection.close()
        off.close()
        spec.close()
