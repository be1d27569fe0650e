"""Append-aware recycling under concurrency: ingest racing its readers.

Stream 0 appends to ``metrics`` and probes it — with the dashboard's
moving windows too, this cycle's (which cover every row, so run as the
plan without the window, the same plan every cycle) and the last
cycle's (which cut the data again); fifteen more streams
read fixed past windows of it — rows no append can change, over cached
results every append leaves behind and the next reader extends.  So
concurrent readers race each other to extend and republish the same
entries, and race the appends that make their extensions stale before
they publish.  Per-stream order survives every admission permutation,
so every query's rows must be **byte-identical** to a serial replay,
and the run must leave the cache consistent and no in-flight
registration behind.
"""

from __future__ import annotations

import sys

import pytest

from interleave import DeterministicInterleaver, serial_reference

from repro import Database, RecyclerConfig
from repro.recycler.rewriter import appended_table
from repro.workloads import timeseries as ts

SEEDS = (3, 29, 4242)
N_STREAMS = 16
INITIAL = 2048
BATCH = 256
APPENDS = 10

#: stable texts over rows fixed before the first append; each stays
#: cached across appends (extended) except the top-N and the semi join
#: reading ``metrics`` on its build side (evicted, recomputed)
PAST = [
    ts.range_scan(0, INITIAL),
    ts.range_scan(0, INITIAL // 2),
    ts.site_rollup(INITIAL),
    ts.alerts(INITIAL),
    ts.hot_sensors(INITIAL),
    (f"SELECT ts, sensor, temp FROM metrics WHERE status = 'crit'"
     f" AND ts < {ts.T0 + INITIAL * ts.TICK}"),
]


def build_db() -> Database:
    return Database(RecyclerConfig(mode="spec",
                                   maintenance_interval_seconds=None),
                    catalog=ts.build_catalog(INITIAL))


def streams() -> list[list[object]]:
    ingest: list[object] = []
    rows = INITIAL
    for batch in range(APPENDS):
        ingest.append(ts.append_unit(batch, rows, BATCH, seed=77))
        rows += BATCH
        # the moving windows: the current cycle's cover every row (and
        # run without the window), the last cycle's now cut the data
        ingest += [ts.range_scan(rows - BATCH, rows), ts.site_rollup(rows),
                   ts.alerts(rows), ts.hot_sensors(rows),
                   ts.site_rollup(rows - BATCH), ts.alerts(rows - BATCH),
                   "SELECT count(*) AS n FROM metrics", PAST[0]]
    out = [ingest]
    for stream_id in range(1, N_STREAMS):
        out.append([PAST[(stream_id + k) % len(PAST)] for k in range(8)])
    return out


@pytest.fixture(scope="module")
def reference():
    db = build_db()
    try:
        return serial_reference(db, streams())
    finally:
        db.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_extension_is_byte_identical_to_serial(reference, seed):
    db = build_db()
    interval = sys.getswitchinterval()
    # switch threads often, so republishes interleave mid-update
    sys.setswitchinterval(1e-5)
    try:
        result = DeterministicInterleaver(db, seed=seed, slots=8).run(
            streams())
        assert result.rows == reference
        recycler = db.recycler
        recycler.graph.check_invariants()
        recycler.cache.check_invariants()
        assert len(recycler.inflight) == 0
        assert db.summary()["catalog"]["entries_extended"] > 0
        assert db.summary()["optimizer"]["conjuncts_proved"] > 0
        for entry in recycler.cache.entries():
            tables, functions = db.catalog.versions_for(
                entry.node.tables, entry.node.functions)
            assert entry.versions_match(tables, functions) or \
                appended_table(entry, db.catalog) is not None, entry.node
    finally:
        sys.setswitchinterval(interval)
        db.close()
