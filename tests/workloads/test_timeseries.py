"""Append-heavy time-series workload: ingest racing query traffic.

Two angles on the same workload module:

* **Sustained ingest, one session** — appends interleaved with range /
  aggregate queries must always see exactly the rows appended so far
  (expectations recomputed per step from the deterministic feed), the
  appended table's cached results must never be served across an
  append without the appended rows, and statistics maintenance must
  take the incremental-merge
  path rather than rescanning the table on every batch.

* **Concurrent replay** — the seeded-admission interleaver runs the
  ingest stream against 6 query streams; every query's rows must be
  byte-identical to a serial replay of the same streams on a fresh
  database, while the recycler's invariants hold under the version
  churn.
"""

from __future__ import annotations

import pytest

from interleave import DeterministicInterleaver, serial_reference

from repro import Database, RecyclerConfig
from repro.recycler.rewriter import appended_table
from repro.workloads import timeseries as ts

SEEDS = (11, 4242)


def build_db(**config) -> Database:
    return Database(RecyclerConfig(mode="spec", **config),
                    catalog=ts.build_catalog())


# ----------------------------------------------------------------------
# sustained single-session ingest
# ----------------------------------------------------------------------
class TestSustainedIngest:
    def test_queries_track_ingest_exactly(self):
        db = build_db()
        total = 2048
        batch = 128
        with db.connect() as session:
            for i in range(12):
                db.append_rows(
                    "metrics", ts._batch(total, batch, 9090 + i))
                total += batch
                count = session.sql(
                    "SELECT count(*) AS n FROM metrics")
                assert count.table.to_rows() == [(total,)]
                window = session.sql(ts.range_scan(total - batch, total))
                # every batch covers all sensors uniformly
                assert window.table.num_rows == ts.NUM_SENSORS
                rollup = session.sql(ts.sensor_rollup())
                per_sensor = {row[0]: row[1]
                              for row in rollup.table.to_rows()}
                assert sum(per_sensor.values()) == total
        db.close()

    def test_appended_table_results_never_stale(self):
        """A result over ``metrics`` that cannot be extended over appended
        rows (a float ``avg``) must not be reused after an append —
        ``num_reused`` stays 0 across every batch."""
        db = build_db()
        total = 2048
        sql = ts.sensor_rollup()
        with db.connect() as session:
            session.sql(sql)
            for i in range(6):
                db.append_rows(
                    "metrics", ts._batch(total, 64, 7000 + i))
                total += 64
                result = session.sql(sql)
                assert result.record.num_reused == 0
                counted = sum(r[1] for r in result.table.to_rows())
                assert counted == total
            # no append between these two: now reuse is allowed again
            assert session.sql(sql).record.num_reused > 0
        db.close()

    def test_static_dimension_keeps_recycling(self):
        """Ingest on ``metrics`` must not evict results that only touch
        the static ``sensors`` dimension."""
        # the 8-row dimension query costs ~20 units; drop the store
        # floor so it is admissible at all
        db = build_db(min_store_cost=0.0)
        sql = "SELECT site, count(*) AS n FROM sensors GROUP BY site"
        with db.connect() as session:
            # history mode stores on the second sighting; warm twice so
            # the loop's executions can reuse
            session.sql(sql)
            session.sql(sql)
            for i in range(4):
                db.append_rows("metrics", ts._batch(5000 + 64 * i, 64,
                                                    8000 + i))
                assert session.sql(sql).record.num_reused > 0
        db.close()

    def test_incremental_stats_engage(self):
        db = build_db()
        before = dict(db.catalog.stats_counters)
        total = 2048
        for i in range(6):
            db.append_rows("metrics", ts._batch(total, 64, 6000 + i))
            total += 64
        after = db.catalog.stats_counters
        merges = after["incremental_merges"] - before["incremental_merges"]
        assert merges > 0
        # maintenance surface reports the same counter
        assert db.summary()["maintenance"][
            "stats_incremental_merges"] == after["incremental_merges"]
        db.close()


# ----------------------------------------------------------------------
# concurrent replay vs serial reference
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def replay_setup():
    streams = ts.generate_streams()
    reference_db = build_db()
    reference = serial_reference(reference_db, streams)
    reference_db.close()
    return streams, reference


class TestIngestReplay:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_identical_to_serial(self, replay_setup, seed):
        streams, reference = replay_setup
        db = build_db()
        runner = DeterministicInterleaver(db, seed=seed, slots=8)
        result = runner.run(streams)
        assert len(result.rows) == sum(len(s) for s in streams)
        for key, rows in result.rows.items():
            assert rows == reference[key], key
        # ingest really ran and stats stayed on the cheap path
        assert db.catalog.stats_counters["incremental_merges"] > 0
        db.recycler.graph.check_invariants()
        db.recycler.cache.check_invariants()
        assert len(db.recycler.inflight) == 0
        # surviving cache entries are at the live catalog version, or
        # behind it only by appends they extend over
        live = db.catalog
        for entry in db.recycler.cache.entries():
            tables, functions = live.versions_for(
                entry.node.tables, entry.node.functions)
            assert entry.versions_match(tables, functions) or \
                appended_table(entry, live) is not None, entry.node
        db.close()

    def test_shared_query_traffic_recycles(self, replay_setup):
        """The static query mix overlaps across streams — even under
        ingest some results must actually be reused."""
        streams, _ = replay_setup
        db = build_db()
        runner = DeterministicInterleaver(db, seed=77, slots=8)
        result = runner.run(streams)
        assert result.num_reused > 0
        db.close()
