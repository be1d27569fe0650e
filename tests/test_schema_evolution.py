"""Schema evolution: ``alter_table_add_column`` / ``rename_column``.

The acceptance bar: a query executed after a schema change must never
be served a result materialized before it.  The two DDL ops stress
different halves of the versioning scheme:

* ``add_column`` is additive — old plans still validate against the
  new schema, so only the **version** bumps: recycler graph history
  survives (``num_matched`` keeps counting), but every cached result
  over the table is version-dead (``num_reused`` restarts at 0);
* ``rename_column`` invalidates old bindings — the **incarnation**
  bumps too, old-name SQL now fails to bind, and rebound plans build
  fresh graph state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import Catalog, FLOAT64, INT64, STRING
from repro.errors import SchemaError, SqlError


def build_db(rows: int = 5000) -> Database:
    rng = np.random.default_rng(99)
    catalog = Catalog()
    catalog.register_table("t", Table.from_rows(
        ["k", "grp", "val"], [INT64, INT64, FLOAT64],
        [(int(i), int(i % 7), float(v)) for i, v in
         enumerate(rng.uniform(0, 1, rows))]))
    return Database(RecyclerConfig(mode="spec"), catalog=catalog)


ROLLUP = "SELECT grp, count(*) AS n, sum(val) AS s FROM t GROUP BY grp"


def warm(session, sql: str) -> None:
    """Execute twice: history mode materializes on the second
    sighting, so the third execution can reuse."""
    session.sql(sql)
    session.sql(sql)


class TestAddColumn:
    def test_default_fill_and_stats(self):
        db = build_db(rows=10)
        db.alter_table_add_column("t", "tag", STRING)
        db.alter_table_add_column("t", "w", FLOAT64, default=1.5)
        entry = db.catalog.table_entry("t")
        assert list(entry.table.column("tag")) == [""] * 10
        assert list(entry.table.column("w")) == [1.5] * 10
        # stats were extended to the new columns, not dropped
        assert "w" in entry.column_stats
        result = db.sql("SELECT k, tag, w FROM t WHERE w > 1.0")
        assert result.table.num_rows == 10
        db.close()

    def test_duplicate_column_rejected(self):
        db = build_db(rows=4)
        with pytest.raises(SchemaError):
            db.alter_table_add_column("t", "val", FLOAT64)
        db.close()

    def test_version_bumps_incarnation_does_not(self):
        db = build_db(rows=4)
        version = db.catalog.table_version("t")
        incarnation = db.catalog.table_incarnation("t")
        db.alter_table_add_column("t", "extra", INT64)
        assert db.catalog.table_version("t") == version + 1
        assert db.catalog.table_incarnation("t") == incarnation
        db.close()

    def test_pre_evolution_results_never_served(self):
        db = build_db()
        with db.connect() as session:
            warm(session, ROLLUP)
            assert session.sql(ROLLUP).record.num_reused > 0
            before = session.sql(ROLLUP).table.to_rows()

            db.alter_table_add_column("t", "extra", FLOAT64, default=2.0)

            after = session.sql(ROLLUP)
            record = after.record
            # the cached rollup predates the DDL: recomputed, not served
            assert record.num_reused == 0
            # additive DDL: identical rows, freshly computed
            assert after.table.to_rows() == before
            # graph history survives an additive change
            assert record.num_matched > 0

            # the re-warmed result is reusable again post-DDL
            session.sql(ROLLUP)
            assert session.sql(ROLLUP).record.num_reused > 0
        db.close()

    def test_new_column_joins_old_data(self):
        db = build_db(rows=6)
        db.alter_table_add_column("t", "flag", INT64, default=1)
        result = db.sql("SELECT sum(flag) AS f FROM t WHERE k >= 0")
        assert result.table.to_rows() == [(6,)]
        db.close()


class TestRenameColumn:
    def test_rename_rebinds_and_old_name_fails(self):
        db = build_db(rows=8)
        assert db.sql("SELECT sum(val) AS s FROM t").table.num_rows == 1
        db.rename_column("t", "val", "value")
        with pytest.raises(SqlError):
            db.sql("SELECT sum(val) AS s FROM t")
        result = db.sql("SELECT sum(value) AS s FROM t")
        assert result.table.num_rows == 1
        db.close()

    def test_missing_or_colliding_names_rejected(self):
        db = build_db(rows=4)
        with pytest.raises(SchemaError):
            db.rename_column("t", "nope", "x")
        with pytest.raises(SchemaError):
            db.rename_column("t", "val", "grp")
        db.close()

    def test_incarnation_bumps(self):
        db = build_db(rows=4)
        version = db.catalog.table_version("t")
        incarnation = db.catalog.table_incarnation("t")
        db.rename_column("t", "val", "value")
        assert db.catalog.table_version("t") == version + 1
        assert db.catalog.table_incarnation("t") == incarnation + 1
        db.close()

    def test_pre_rename_results_never_served(self):
        db = build_db()
        with db.connect() as session:
            warm(session, ROLLUP)
            assert session.sql(ROLLUP).record.num_reused > 0
            before = session.sql(ROLLUP).table.to_rows()

            db.rename_column("t", "k", "key_col")

            # the rollup doesn't mention ``k``; it must still recompute
            # (its cached result is version-dead) and match exactly
            after = session.sql(ROLLUP)
            assert after.record.num_reused == 0
            assert after.table.to_rows() == before
        db.close()

    def test_stats_follow_the_rename(self):
        db = build_db(rows=16)
        old_stats = db.catalog.table_entry("t").column_stats["val"]
        db.rename_column("t", "val", "value")
        entry = db.catalog.table_entry("t")
        assert "val" not in entry.column_stats
        assert entry.column_stats["value"] is old_stats
        db.close()


class TestEvolutionUnderCache:
    def test_interleaved_ddl_and_queries_stay_exact(self):
        """A DDL between every pair of executions: rows must always be
        freshly correct, reuse must never cross a DDL boundary."""
        db = build_db()
        sql = ROLLUP
        with db.connect() as session:
            expected = None
            for step in range(4):
                warm(session, sql)
                result = session.sql(sql)
                rows = result.table.to_rows()
                if expected is not None:
                    assert rows == expected
                expected = rows
                assert result.record.num_reused > 0
                db.alter_table_add_column("t", f"c{step}", INT64,
                                          default=step)
                assert session.sql(sql).record.num_reused == 0
            # cache invariants after the DDL storm
            db.recycler.graph.check_invariants()
            db.recycler.cache.check_invariants()
        db.close()
