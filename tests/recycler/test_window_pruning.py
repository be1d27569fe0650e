"""Moving windows: range conjuncts the snapshot proves true are dropped.

``Recycler.prepare`` removes every conjunct of a ``Select`` directly
over a ``Scan`` that the query's snapshot proves true of every row — an
INT64 or DATE column against an integer, ``<`` / ``<=`` / ``>`` /
``>=``, decided by the catalog's exact min / max — so a dashboard
window whose bound moves with every append is one plan, the one the
recycler cached last time.  Every case runs against an ``off`` twin
(which prunes alike: every mode executes the same plan) and must match
it byte for byte; ``conjuncts_proved`` says whether anything was
dropped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import DATE, FLOAT64, INT64, Catalog, Schema
from repro.plan.logical import Select
from repro.workloads import timeseries as ts
from twin_replay import table_bytes

INITIAL = 2048
BATCH = 64
#: the first and last ``ts`` of the initial rows
FIRST = ts.T0
LAST = ts.T0 + (INITIAL - 1) * ts.TICK


def metrics_catalog(stats: bool = True, rows: int = INITIAL) -> Catalog:
    catalog = Catalog()
    catalog.register_table("metrics", ts._batch(0, rows, 9090),
                           compute_stats=stats)
    catalog.register_table("sensors", ts.sensors_table())
    return catalog


class Pair:
    """A ``spec`` database and its ``off`` reference, fed alike."""

    def __init__(self, build=metrics_catalog) -> None:
        self.db = Database(RecyclerConfig(mode="spec"), catalog=build())
        self.off = Database(RecyclerConfig(mode="off"), catalog=build())
        self.rows = INITIAL

    def sql(self, text: str):
        result = self.db.sql(text)
        assert table_bytes(result.table) == \
            table_bytes(self.off.sql(text).table), text
        self.db.recycler.cache.check_invariants()
        return result

    def proved(self) -> int:
        """Conjuncts dropped so far — alike in both modes."""
        counts = [db.summary()["optimizer"]["conjuncts_proved"]
                  for db in (self.db, self.off)]
        assert counts[0] == counts[1]
        return counts[0]

    def append(self, rows: int = BATCH, stats: bool = True) -> None:
        batch = ts._batch(self.rows, rows, 500 + self.rows)
        self.rows += rows
        for db in (self.db, self.off):
            if stats:
                db.append_rows("metrics", batch)
            else:
                db.catalog.append_rows("metrics", batch, compute_stats=False)
                db.recycler.invalidate_table("metrics")

    def root_hits(self) -> int:
        return self.db.summary()["optimizer"]["root_hits"]

    def close(self) -> None:
        self.db.close()
        self.off.close()


@pytest.fixture
def pair():
    pair = Pair()
    yield pair
    pair.close()


def proves(pair: Pair, text: str) -> int:
    """Run ``text`` on both twins; the conjuncts its prepare dropped."""
    before = pair.proved()
    pair.sql(text)
    return pair.proved() - before


class TestPruned:
    @pytest.mark.parametrize("text", [
        ts.site_rollup(INITIAL),
        f"SELECT ts, temp FROM metrics WHERE ts <= {LAST}",
        # a lower bound at the minimum
        f"SELECT count(*) AS n FROM metrics WHERE ts >= {FIRST}",
        # the literal on the left
        f"SELECT count(*) AS n FROM metrics WHERE {LAST} >= ts",
        f"SELECT sensor, count(*) AS n FROM metrics"
        f" WHERE {FIRST - 1} < ts GROUP BY sensor",
    ], ids=["above max", "at max inclusive", "at min inclusive",
            "literal left", "literal left strict"])
    def test_one_conjunct(self, pair, text):
        assert proves(pair, text) == 1

    def test_a_select_losing_every_conjunct_disappears(self, pair):
        text = ts.range_scan(0, INITIAL)    # ts >= FIRST AND ts < past LAST
        assert proves(pair, text) == 2
        snapshot = pair.db.catalog.snapshot()
        statement = pair.db.service.statement(text, snapshot)
        assert any(isinstance(node, Select)
                   for node in statement.plan.walk())
        variant = statement.variant(snapshot)
        assert variant.proved == 0b11
        assert not any(isinstance(node, Select)
                       for node in variant.plan.walk())

    def test_only_the_proved_conjuncts_go(self, pair):
        # the lower bound is proved, the upper one cuts the data
        assert proves(pair, ts.range_scan(0, INITIAL // 2)) == 1
        assert proves(pair, ts.alerts(INITIAL)) == 1     # status = stays

    def test_date_column(self):
        schema = Schema(["d", "v"], [DATE, INT64])
        days = np.arange(18_000, 18_100, dtype=np.int32)

        def build():
            catalog = Catalog()
            catalog.register_table("events", Table(schema, {
                "d": days, "v": np.arange(100, dtype=np.int64)}))
            return catalog

        pair = Pair(build)
        try:
            assert proves(pair, "SELECT v FROM events"
                                " WHERE d < DATE '2100-01-01'") == 1
            assert proves(pair, "SELECT v FROM events"
                                " WHERE d >= DATE '2019-04-14'") == 1
            # 2019-04-15 is day 18 001, inside the column
            assert proves(pair, "SELECT v FROM events"
                                " WHERE d >= DATE '2019-04-15'") == 0
        finally:
            pair.close()

    def test_repeats_are_root_hits(self, pair):
        text = ts.site_rollup(INITIAL)
        pair.sql(text)
        pair.sql(text)          # the root's result is cached by now
        for _ in range(3):
            hits = pair.root_hits()
            result = pair.sql(text)
            assert pair.root_hits() == hits + 1
            assert result.record.num_inserted == 0
            assert result.record.num_reused == 1
        assert pair.proved() == 5


class TestNeverPruned:
    @pytest.mark.parametrize("text", [
        # ``<`` / ``>`` with the bound exactly at the max / min
        f"SELECT ts, temp FROM metrics WHERE ts < {LAST}",
        f"SELECT ts, temp FROM metrics WHERE ts > {FIRST}",
        "SELECT ts FROM metrics WHERE ts <> 5",
        "SELECT ts FROM metrics WHERE sensor IN (1, 2, 3, 4, 5, 6, 7, 8)",
        "SELECT ts FROM metrics WHERE sensor = 1",
        # float: min / max skip NaN (and a float literal never counts)
        "SELECT ts FROM metrics WHERE temp < 1000",
        f"SELECT ts FROM metrics WHERE ts < {LAST}.5",
        # a range conjunct above a join (and a project) stays
        "SELECT t2, site FROM (SELECT ts + 0 AS t2, site FROM metrics"
        " JOIN sensors ON metrics.sensor = sensors.sensor) j WHERE t2 >= 0",
    ], ids=["< at max", "> at min", "<>", "IN", "=", "float column",
            "float literal", "above a join"])
    def test_not_a_window(self, pair, text):
        assert proves(pair, text) == 0

    def test_float_column_holding_nan(self):
        schema = Schema(["f", "v"], [FLOAT64, INT64])

        def build():
            catalog = Catalog()
            catalog.register_table("readings", Table(schema, {
                "f": np.array([1.0, np.nan, 3.0, np.nan]),
                "v": np.arange(4, dtype=np.int64)}))
            return catalog

        pair = Pair(build)
        try:
            assert pair.db.catalog.column_range("readings", "f") == \
                (1.0, 3.0)      # ... but two rows fail ``f < 4``
            result = pair.sql("SELECT v FROM readings WHERE f < 4")
            assert result.table.num_rows == 2
            assert pair.proved() == 0
        finally:
            pair.close()

    def test_table_registered_without_statistics(self):
        pair = Pair(lambda: metrics_catalog(stats=False))
        try:
            assert proves(pair, ts.site_rollup(INITIAL)) == 0
        finally:
            pair.close()

    def test_rows_appended_without_statistics(self, pair):
        assert proves(pair, ts.site_rollup(INITIAL)) == 1
        pair.append(stats=False)
        assert pair.db.catalog.column_range("metrics", "ts") is None
        assert proves(pair, ts.site_rollup(pair.rows)) == 0
        assert proves(pair, ts.site_rollup(INITIAL)) == 0

    def test_empty_table(self):
        pair = Pair(lambda: metrics_catalog(rows=0))
        try:
            assert proves(pair, ts.site_rollup(INITIAL)) == 0
            assert proves(pair, ts.range_scan(0, INITIAL)) == 0
        finally:
            pair.close()


class TestVariantMemo:
    def test_a_stale_window_is_not_served_the_extended_node(self, pair):
        """The root-hit memo stands for the variant it was made under.

        ``site_rollup(k)`` covers every row: it runs as the windowless
        join aggregate, whose root it memoizes.  After an append
        ``site_rollup(k + batch)`` is that same plan and extends the
        node over the new rows.  ``site_rollup(k)`` again no longer
        covers the table — served from its memo it would count the
        appended rows."""
        old = ts.site_rollup(pair.rows)
        pair.sql(old)
        pair.sql(old)
        snapshot = pair.db.catalog.snapshot()
        statement = pair.db.service.statement(old, snapshot)
        memo = statement.root_hit
        assert statement.variant(snapshot).proved == 1
        assert memo.plan is statement.variant(snapshot).plan
        assert memo.root.entry is not None
        pair.append()
        new = ts.site_rollup(pair.rows)
        extended = pair.db.summary()["catalog"]["entries_extended"]
        assert pair.sql(new).record.num_reused == 1
        assert pair.db.summary()["catalog"]["entries_extended"] == \
            extended + 1
        assert memo.root.entry.table_rows["metrics"] == pair.rows
        # a server's event loop asks first: not warm under this snapshot
        assert pair.db.service.execute(old, warm_only=True) is None
        hits = pair.root_hits()
        result = pair.sql(old)           # compared with ``off`` inside
        assert pair.root_hits() == hits
        assert result.table.to_rows() != pair.sql(new).table.to_rows()

    def test_the_variants_alternate_with_the_data(self, pair):
        """One statement, re-issued while appends move the maximum past
        its bound and a stale memo is on record for each variant."""
        windows = [ts.site_rollup(INITIAL + k * BATCH) for k in range(4)]
        for _ in range(3):
            for text in windows * 2:
                pair.sql(text)
            pair.append()
        assert pair.db.summary()["catalog"]["entries_extended"] > 0


def test_prebuilt_plans_are_pruned_too(pair):
    plan = pair.db.plan(ts.site_rollup(INITIAL))
    before = pair.proved()
    for db in (pair.db, pair.off):
        db.execute(plan)
    assert pair.proved() == before + 1
