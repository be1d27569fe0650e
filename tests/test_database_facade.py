"""Tests for the public Database facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64, STRING, Schema
from repro.errors import PlanError, SqlError
from repro.plan.logical import render_plan


@pytest.fixture
def db():
    database = Database(RecyclerConfig(mode="spec"))
    rng = np.random.default_rng(1)
    n = 5000
    database.register_table("events", Table(
        Table.from_rows(["kind", "value"], [STRING, FLOAT64], []).schema,
        {
            "kind": rng.choice(np.array(["a", "b", "c"], dtype=object),
                               n),
            "value": rng.uniform(0, 10, n),
        }))
    return database


class TestFacade:
    def test_sql_round_trip(self, db):
        result = db.sql("SELECT kind, count(*) AS n FROM events"
                        " GROUP BY kind ORDER BY kind")
        assert list(result.table.column("kind")) == ["a", "b", "c"]

    def test_repeat_reuses(self, db):
        sql = "SELECT kind, sum(value) AS s FROM events GROUP BY kind"
        db.sql(sql)
        again = db.sql(sql)
        assert again.stats.num_reused == 1

    def test_explain(self, db):
        text = db.explain("SELECT kind FROM events WHERE value > 5.0")
        assert "scan(events" in text
        assert "select" in text

    def test_explain_renders_the_plan_the_recycler_matches(self, db):
        # a stacked filter with a float literal: the optimizer merges
        # the Selects and normalizes 5.0, so as-bound != canonical
        sql = ("SELECT kind FROM (SELECT kind, value FROM events"
               " WHERE value > 5.0) sub WHERE value < 9")
        snapshot = db.catalog.snapshot()
        bound = db.plan(sql, snapshot)
        canonical = render_plan(db.recycler.optimize(bound, snapshot))
        assert canonical != render_plan(bound)
        assert db.explain(sql) == canonical
        # ... and it is the statement the next execution will hit
        hits = db.summary()["service"]["statement_cache"]["hits"]
        db.sql(sql)
        assert db.summary()["service"]["statement_cache"]["hits"] == \
            hits + 1

    def test_invalid_sql_raises(self, db):
        with pytest.raises(SqlError):
            db.sql("SELECT missing_column FROM events")

    def test_execute_validates_plans(self, db):
        from repro.expr import Cmp, Col, Lit
        from repro.plan import q
        bad = (q.scan("events", ["kind"])
                .filter(Cmp(">", Col("value"), Lit(1.0)))
                .build())
        with pytest.raises(PlanError):
            db.execute(bad)

    def test_register_function(self, db):
        def numbers(n):
            return Table.from_rows(["n"], [INT64],
                                   [(i,) for i in range(int(n))])

        db.register_function("numbers", numbers, Schema(["n"], [INT64]))
        result = db.sql("SELECT n FROM numbers(4) t WHERE n > 1")
        assert list(result.table.column("n")) == [2, 3]

    def test_replacing_table_invalidates_cache(self, db):
        sql = "SELECT sum(value) AS s FROM events"
        first = db.sql(sql)
        db.register_table("events", Table(
            Table.from_rows(["kind", "value"],
                            [STRING, FLOAT64], []).schema,
            {"kind": np.array(["z"], dtype=object),
             "value": np.array([42.0])}))
        fresh = db.sql(sql)
        assert fresh.table.column("s")[0] == pytest.approx(42.0)
        assert fresh.table.column("s")[0] != \
            pytest.approx(float(first.table.column("s")[0]))

    def test_summary_counters(self, db):
        db.sql("SELECT count(*) AS n FROM events")
        db.sql("SELECT count(*) AS n FROM events")
        summary = db.summary()
        assert summary["queries"] == 2
        assert summary["cache"].reuses >= 1

    def test_flush_cache(self, db):
        db.sql("SELECT kind, max(value) AS m FROM events GROUP BY kind")
        assert db.flush_cache() >= 1
        assert db.summary()["cache_entries"] == 0
