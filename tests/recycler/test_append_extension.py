"""Append-aware recycling: cached results extended over appended rows.

After ``Database.append_rows`` a cached result whose plan is
append-monotone in the appended table stays cached; the next query that
reuses it runs the plan over the appended rows alone, merges, and
republishes the merged result.  Every test compares against a
``mode="off"`` twin fed the same appends — byte for byte — so "extended"
can only ever mean "what recomputing would have returned".
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import INT64
from repro.recycler.rewriter import appended_table
from repro.workloads import timeseries as ts
from twin_replay import Twins, quiet_config, replay, table_bytes

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import APPEND, WORKLOADS  # noqa: E402

INITIAL = 2048
BATCH = 64

#: cached roots that must survive an append and be extended
EXTENDED = {
    # grouped count / float max; the window excludes the new rows
    "window": ts.range_scan(0, INITIAL // 2),
    # grouped count, float max, string min, integer sum over new rows
    "grouped": ("SELECT sensor, count(*) AS n, max(temp) AS hi,"
                " min(status) AS worst, sum(ts) AS s FROM metrics"
                " WHERE temp > 20 GROUP BY sensor"),
    # inner join, ``metrics`` probing a static build side; the window
    # covers every row, so it runs without it (moving windows) ...
    "join": ts.site_rollup(10 ** 6),
    # ... and with a window that cuts the data
    "join window": ts.site_rollup(INITIAL // 2),
    # a left join qualifies beneath an aggregate
    "left join": ("SELECT site, count(*) AS n, min(temp) AS lo"
                  " FROM metrics LEFT JOIN sensors"
                  " ON metrics.sensor = sensors.sensor GROUP BY site"),
    # row level: select / project, the new rows follow the old
    "rows": "SELECT ts, sensor, temp FROM metrics WHERE status = 'crit'",
    # row level: anti and semi joins probing with ``metrics``
    "anti join": ("SELECT ts, sensor FROM metrics WHERE sensor NOT IN"
                  " (SELECT sensor FROM sensors WHERE floor = 1)"),
    "semi join": ("SELECT ts, temp FROM metrics WHERE sensor IN"
                  " (SELECT sensor FROM sensors WHERE site = 'lab')"),
    # scalar count / integer sum: 0 over an empty window is their
    # merge identity
    "scalar count": (f"SELECT count(*) AS n, sum(sensor) AS s FROM metrics"
                     f" WHERE ts >= {ts.T0 + INITIAL * ts.TICK}"),
    # top N of (old top N ++ Δ's top N), ties broken by position (windows
    # covering every row, dropped, and windows cutting the data)
    "top-n": ts.alerts(10 ** 6),
    "top-n window": ts.alerts(INITIAL // 2),
}

#: cached roots an append must evict
EVICTED = {
    "float avg": ts.sensor_rollup(),
    # pairwise summation: sum(old) + sum(new) is not sum(old ++ new)
    "float sum": "SELECT sensor, sum(temp) AS s FROM metrics GROUP BY sensor",
    # the cached rows lack the first ``offset`` of old ∪ Δ
    "top-n offset": ts.alerts(10 ** 6) + " OFFSET 2",
    # a row-level left join under the TopN
    "top-n left join": ("SELECT ts, site, temp FROM metrics LEFT JOIN"
                        " sensors ON metrics.sensor = sensors.sensor"
                        " ORDER BY temp DESC, ts LIMIT 5"),
    # the TopN's build side reads ``metrics`` (``hot_sensors``)
    "top-n build side": (ts.hot_sensors(10 ** 6)
                         + " ORDER BY sensor DESC LIMIT 3"),
    # (windows covering every row, dropped, and windows cutting the data)
    "build side reads metrics": ts.hot_sensors(10 ** 6),
    "build side window": ts.hot_sensors(INITIAL // 2),
    "self-join": ("SELECT m1.sensor, count(*) AS n FROM metrics m1"
                  " JOIN metrics m2 ON m1.ts = m2.ts GROUP BY m1.sensor"),
    # row level, a left join puts each probe batch's padded rows after
    # its matches: the order depends on where batches break
    "left join rows": ("SELECT ts, site FROM metrics LEFT JOIN sensors"
                       " ON metrics.sensor = sensors.sensor"),
    # empty before the append: the no-NULL default 0 is not a max
    "scalar max": (f"SELECT max(temp) AS hi FROM metrics"
                   f" WHERE ts >= {ts.T0 + INITIAL * ts.TICK}"),
}


class Pair:
    """A recycling database (``spec`` unless ``mode`` says otherwise)
    and its ``off`` reference, fed alike."""

    def __init__(self, cache_bytes: int | None = None,
                 mode: str = "spec") -> None:
        self.db = Database(RecyclerConfig(mode=mode,
                                          cache_capacity=cache_bytes),
                           catalog=ts.build_catalog(INITIAL))
        self.off = Database(RecyclerConfig(mode="off"),
                            catalog=ts.build_catalog(INITIAL))
        self.rows = INITIAL
        self.batches = 0

    def sql(self, text: str):
        result = self.db.sql(text)
        assert table_bytes(result.table) == \
            table_bytes(self.off.sql(text).table), text
        self.db.recycler.cache.check_invariants()
        return result

    def append(self, rows: int = BATCH, temps=None) -> None:
        """Append the feed's next ``rows`` rows, their ``temp`` column
        replaced by ``temps`` when given."""
        self.batches += 1
        batch = ts._batch(self.rows, rows, 500 + self.batches)
        if temps is not None:
            batch = Table(batch.schema, {
                **{name: batch.column(name)
                   for name in batch.schema.names},
                "temp": np.asarray(temps, dtype=np.float64)})
        self.rows += rows
        for db in (self.db, self.off):
            db.append_rows("metrics", batch)

    def apply(self, op) -> None:
        op(self.db)
        op(self.off)

    def root(self, text: str):
        """The graph node the statement's plan root unified with."""
        statement = self.db.service.statement(text,
                                              self.db.catalog.snapshot())
        return statement.root_hit.root

    def extended(self) -> int:
        return self.db.summary()["catalog"]["entries_extended"]

    def close(self) -> None:
        self.db.close()
        self.off.close()


@pytest.fixture
def pair():
    pair = Pair()
    yield pair
    pair.close()


def warm(pair: Pair, text: str):
    """Run ``text`` until its root is cached; returns the root node."""
    pair.sql(text)
    pair.sql(text)
    root = pair.root(text)
    assert root.entry is not None, "premise: the root result is cached"
    return root


class TestEligibility:
    @pytest.mark.parametrize("name", sorted(EXTENDED))
    def test_monotone_root_is_extended(self, pair, name):
        text = EXTENDED[name]
        root = warm(pair, text)
        pair.append()
        stale = root.entry
        assert stale is not None and \
            appended_table(stale, pair.db.catalog) == "metrics"
        before = pair.extended()
        result = pair.sql(text)
        assert result.record.num_reused == 1
        assert pair.extended() == before + 1
        assert root.entry is not stale  # republished ...
        assert root.entry.table_rows["metrics"] == pair.rows
        # ... under the live versions: the next repeat is a root hit
        hits = pair.db.summary()["optimizer"]["root_hits"]
        assert pair.sql(text).record.num_reused == 1
        assert pair.db.summary()["optimizer"]["root_hits"] == hits + 1
        assert pair.extended() == before + 1

    @pytest.mark.parametrize("covering, cutting", [
        (EXTENDED["join"], EXTENDED["join window"]),
        (EXTENDED["top-n"], EXTENDED["top-n window"]),
        (EVICTED["build side reads metrics"], EVICTED["build side window"]),
    ], ids=["join", "top-n", "build side"])
    def test_only_covering_windows_are_dropped(self, pair, covering,
                                               cutting):
        def proved(text):
            before = pair.db.summary()["optimizer"]["conjuncts_proved"]
            pair.sql(text)
            return pair.db.summary()["optimizer"]["conjuncts_proved"] - \
                before
        assert (proved(covering), proved(cutting)) == (1, 0)

    @pytest.mark.parametrize("name", sorted(EVICTED))
    def test_other_shapes_are_evicted(self, pair, name):
        text = EVICTED[name]
        root = warm(pair, text)
        evicted = pair.db.summary()["catalog"]["entries_evicted"]
        pair.append()
        assert root.entry is None
        assert pair.db.summary()["catalog"]["entries_evicted"] > evicted
        pair.sql(text)  # recomputed, equal to the reference


class TestNonAppendChangesBlockExtension:
    @pytest.mark.parametrize("ddl", [
        lambda db: db.alter_table_add_column("metrics", "zone", INT64, 3),
        lambda db: db.rename_column("metrics", "status", "state"),
        lambda db: db.register_table("metrics",
                                     db.catalog.table("metrics")),
    ], ids=["add_column", "rename_column", "register_table"])
    def test_ddl_between_production_and_reuse(self, pair, ddl):
        text = EXTENDED["window"]  # reads neither ``status`` nor ``zone``
        root = warm(pair, text)
        pair.append()
        entry = root.entry
        assert appended_table(entry, pair.db.catalog) == "metrics"
        pair.apply(ddl)
        # the rule, not just the sweep: the table's base version moved
        assert appended_table(entry, pair.db.catalog) is None
        assert root.entry is None
        before = pair.extended()
        result = pair.sql(text)
        assert result.record.num_reused == 0
        assert pair.extended() == before

    def test_pinned_snapshot_reads_the_old_rows(self, pair):
        text = EXTENDED["rows"]
        old = pair.sql(text)
        warm(pair, text)
        pinned = pair.db.catalog.snapshot()
        pair.append()
        extended = pair.sql(text)
        assert extended.table.num_rows > old.table.num_rows
        again = pair.db.service.execute(text, frontend="database",
                                        snapshot=pinned)
        assert table_bytes(again.table) == table_bytes(old.table)
        assert again.record.num_reused == 0  # the entry is newer


class TestDelta:
    def test_two_appends_one_delta(self, pair):
        text = EXTENDED["rows"]
        root = warm(pair, text)
        pair.append()
        pair.append(100)
        before = pair.extended()
        pair.sql(text)
        assert pair.extended() == before + 1
        assert root.entry.table_rows["metrics"] == INITIAL + BATCH + 100

    def test_extension_is_charged_to_its_reader(self, pair):
        text = EXTENDED["join"]
        warm(pair, text)
        hit = pair.sql(text).record.total_cost
        pair.append()
        extended = pair.sql(text).record.total_cost
        assert extended > hit
        assert pair.sql(text).record.total_cost == hit

    def test_republish_under_cache_pressure(self):
        """Row-level results that double in size must evict to fit —
        or lose their entry — with the accounting exact throughout."""
        pair = Pair(cache_bytes=40 * 1024)
        texts = [f"SELECT ts, temp FROM metrics WHERE sensor = {sensor}"
                 for sensor in range(1, 9)]
        try:
            for text in texts * 2:
                pair.sql(text)
            cached = len(pair.db.recycler.cache)
            assert cached >= 2  # premise: several compete for the bytes
            for _ in range(3):
                pair.append(INITIAL // 2)
                for text in texts:
                    pair.sql(text)
            cache = pair.db.recycler.cache
            assert cache.counters.extended > 0
            assert cache.counters.evicted > 0
            assert cache.used <= cache.capacity
            cache.check_invariants()
            pair.db.recycler.graph.check_invariants()
        finally:
            pair.close()


class TestTopN:
    """A TopN's cached rows merge with Δ's top rows; each read below is
    compared byte for byte with the ``off`` twin by ``Pair.sql``."""

    TEXT = ("SELECT ts, sensor, temp FROM metrics"
            " ORDER BY temp DESC LIMIT 6")

    def test_ties_straddle_old_rows_and_delta(self, pair):
        root = warm(pair, self.TEXT)
        temps = root.entry.table.column("temp")
        # Δ ties the 2nd and the 6th best and beats the best: the old
        # tied rows must stay ahead of Δ's, and the 6th-best ties drop
        pair.append(8, [temps[1], temps[5], temps[0] + 1.0, temps[5],
                        temps[1], 0.0, temps[5], temps[0] + 1.0])
        before = pair.extended()
        rows = pair.sql(self.TEXT).table
        assert pair.extended() == before + 1
        assert rows.column("temp").tolist() == [
            temps[0] + 1.0, temps[0] + 1.0, temps[0], temps[1], temps[1],
            temps[1]]
        # the primary key alone: ties are all but two of old ∪ Δ
        text = "SELECT ts, sensor FROM metrics ORDER BY sensor LIMIT 4"
        warm(pair, text)
        pair.append(3 * ts.NUM_SENSORS)
        pair.sql(text)
        assert pair.extended() == before + 2

    def test_two_appends_between_reads(self, pair):
        root = warm(pair, self.TEXT)
        best = root.entry.table.column("temp")[0]
        pair.append(BATCH, np.full(BATCH, best))
        pair.append(7, np.linspace(best - 1.0, best + 1.0, 7))
        before = pair.extended()
        pair.sql(self.TEXT)
        assert pair.extended() == before + 1
        assert root.entry.table_rows["metrics"] == INITIAL + BATCH + 7

    def test_proactive_topn_under_limit(self):
        pair = Pair(mode="pa")
        try:
            for _ in range(3):
                pair.sql(self.TEXT)
            extended = pair.extended()
            for step in range(3):
                pair.append(BATCH)
                pair.sql(self.TEXT)
            assert pair.extended() > extended
        finally:
            pair.close()


class TestTsAppendReplay:
    """The benchmark's ``ts_append`` op list, spec against off."""

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_byte_identical_to_unrecycled(self, seed):
        workload = WORKLOADS["ts_append"]
        size = 0.04
        ops = [op.text if op.kind != APPEND else
               (lambda db, unit=ts.append_unit(op.batch, op.start_row,
                                               op.rows, seed):
                unit(db, None))
               for op in workload.make_ops(seed, size)]

        def run(mode):
            db = workload.build(seed, size, mode)
            try:
                produced, _ = replay(db, ops)
                return [rows for rows, _ in produced], db.summary()
            finally:
                db.close()

        spec, summary = run("spec")
        off, _ = run("off")
        assert spec == off
        assert summary["catalog"]["entries_extended"] > 0


def test_quiet_config_twins_agree_with_extensions():
    """The root-hit fast path and the full pipeline extend alike."""
    twins = Twins(lambda: Database(quiet_config(64 * 1024 * 1024),
                                   catalog=ts.build_catalog(INITIAL)))
    try:
        texts = [EXTENDED["window"], EXTENDED["join"], EXTENDED["rows"],
                 EVICTED["float avg"]]
        rows = INITIAL
        for step in range(4):
            for text in texts * 2:
                twins.sql(text)
            batch = ts._batch(rows, BATCH, 900 + step)
            rows += BATCH
            twins.apply(lambda db, b=batch: db.append_rows("metrics", b))
        twins.assert_same_state()
        assert twins.fast.summary()["catalog"]["entries_extended"] == \
            twins.slow.summary()["catalog"]["entries_extended"] > 0
    finally:
        twins.close()


def test_merge_of_float_max_keeps_the_sign_of_zero():
    """``max`` over ties of 0.0 and -0.0 returns the later one; merging
    the old and new maxima in that order returns what one pass does."""
    def zeros(start: int, negative_first: bool) -> Table:
        batch = ts._batch(start, 16, 1)
        signs = np.where(np.arange(16) % 2 == int(negative_first),
                         0.0, -0.0)
        return Table(batch.schema, {
            **{name: batch.column(name) for name in batch.schema.names},
            "temp": signs})

    pair = Pair()
    try:
        text = ("SELECT sensor, max(temp) AS hi, min(temp) AS lo"
                " FROM metrics WHERE temp < 1 GROUP BY sensor")
        for negative_first in (False, True):
            batch = zeros(pair.rows, negative_first)
            pair.rows += 16
            pair.apply(lambda db, b=batch: db.append_rows("metrics", b))
            warm(pair, text)
        assert pair.extended() == 1
    finally:
        pair.close()
