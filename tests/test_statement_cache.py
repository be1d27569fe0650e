"""The execution service's statement cache.

SQL text maps to a bound, validated, canonicalized plan; a repeat is
served that very plan object as long as every table and table function
the text names still exists with an equal schema in the query's pinned
snapshot.  The bar: a cached statement may save work, never change an
answer — appends keep it (and the next read is cold and correct), DDL
that changes what the text binds to drops it.

Behind the texts sit statement templates: a text that misses binds by
substituting its literals into the plan of an earlier text of the same
shape.  They live and die by the same rule (``TestTemplates``); that a
substituted plan is the plan a fresh bind produces is
``tests/sql/test_statement_templates.py``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table, dbapi, exec_service
from repro.columnar import Catalog, FLOAT64, INT64, STRING, Schema
from repro.errors import CatalogError, SqlError

ROLLUP = "SELECT grp, count(*) AS n, sum(val) AS s FROM t GROUP BY grp"
STAR = "SELECT * FROM t WHERE k < 5"


def make_table(rows: int, offset: int = 0) -> Table:
    rng = np.random.default_rng(5 + offset)
    return Table.from_rows(
        ["k", "grp", "val"], [INT64, INT64, FLOAT64],
        [(int(i + offset), int(i % 7), float(v)) for i, v in
         enumerate(rng.uniform(0, 1, rows))])


@pytest.fixture
def db():
    catalog = Catalog()
    catalog.register_table("t", make_table(3000))
    database = Database(RecyclerConfig(mode="spec"), catalog=catalog)
    yield database
    database.close()


def cache_stats(db: Database) -> dict:
    return db.summary()["service"]["statement_cache"]


def cached(db: Database, text: str):
    return db.service.statement(text, db.catalog.snapshot())


class TestHits:
    def test_hit_returns_the_identical_plan_object(self, db):
        first = cached(db, ROLLUP)
        again = cached(db, ROLLUP)
        assert again is first and again.plan is first.plan
        assert cache_stats(db) == {
            "entries": 1, "hits": 1, "misses": 1, "invalidated": 0,
            "evicted": 0, "templates": 1, "template_hits": 0,
            "template_misses": 1, "template_invalidated": 0,
            "template_plans": 0}

    def test_every_frontend_shares_one_entry(self, db):
        db.sql(ROLLUP)
        with db.connect() as session:
            session.sql(ROLLUP)
        connection = dbapi.connect(db)
        connection.cursor().execute(ROLLUP)
        connection.close()
        assert cache_stats(db)["entries"] == 1
        assert cache_stats(db)["hits"] == 2

    def test_hit_adds_no_optimizer_rewrites(self, db):
        text = "SELECT k FROM t WHERE k < 10 AND 1 = 1"
        db.sql(text)
        rewrites = db.summary()["optimizer"]["rewrites"]
        assert rewrites                     # premise: the miss rewrote
        db.sql(text)
        assert db.summary()["optimizer"]["rewrites"] == rewrites

    def test_errors_are_not_cached(self, db):
        for _ in range(2):
            with pytest.raises(SqlError):
                db.sql("SELEC oops")
            with pytest.raises(SqlError):
                db.sql("SELECT nope FROM t")
            with pytest.raises(CatalogError):
                db.sql("SELECT k FROM missing")
        stats = cache_stats(db)
        assert stats["entries"] == 0 and stats["hits"] == 0
        assert stats["misses"] == 6

    def test_lru_eviction_at_the_bound(self, db, monkeypatch):
        monkeypatch.setattr(exec_service, "STATEMENT_CACHE_ENTRIES", 4)
        texts = [f"SELECT k FROM t WHERE k < {n}" for n in range(6)]
        for text in texts[:4]:
            db.sql(text)
        db.sql(texts[0])            # touch: now the most recently used
        for text in texts[4:]:
            db.sql(text)            # evicts texts[1], then texts[2]
        stats = cache_stats(db)
        assert stats["entries"] == 4 and stats["evicted"] == 2
        hits = stats["hits"]
        db.sql(texts[0])
        assert cache_stats(db)["hits"] == hits + 1
        db.sql(texts[1])
        assert cache_stats(db)["hits"] == hits + 1

    def test_dbapi_executemany_repeated_parameters_hit(self, db):
        connection = dbapi.connect(db)
        cursor = connection.cursor()
        cursor.executemany("SELECT count(*) AS n FROM t WHERE grp = ?",
                           [(1,), (2,), (1,), (2,), (1,)])
        connection.close()
        stats = cache_stats(db)
        assert stats["misses"] == 2 and stats["hits"] == 3


class TestInvalidation:
    def test_append_keeps_the_statement_and_next_read_is_cold(self, db):
        for _ in range(3):
            result = db.sql(ROLLUP)
        assert result.record.num_reused == 1
        statement = cached(db, ROLLUP)
        before = db.sql(ROLLUP).table.to_rows()

        db.append_rows("t", make_table(500, offset=3000))
        assert cached(db, ROLLUP) is statement
        after = db.sql(ROLLUP)
        assert after.record.num_reused == 0          # recomputed
        assert sum(r[1] for r in after.table.to_rows()) == \
            sum(r[1] for r in before) + 500
        assert cache_stats(db)["invalidated"] == 0

    def test_add_column_shows_up_in_cached_select_star(self, db):
        assert db.sql(STAR).table.schema.names == ["grp", "k", "val"]
        db.alter_table_add_column("t", "tag", STRING, default="x")
        result = db.sql(STAR).table
        assert result.schema.names == ["grp", "k", "tag", "val"]
        assert list(result.column("tag")) == ["x"] * 5
        assert cache_stats(db)["invalidated"] == 1

    def test_rename_column_invalidates(self, db):
        db.sql(ROLLUP)
        db.sql(STAR)
        db.rename_column("t", "val", "amount")
        with pytest.raises(SqlError):
            db.sql(ROLLUP)                      # ``val`` is gone
        assert db.sql(STAR).table.schema.names == ["amount", "grp", "k"]
        assert cache_stats(db)["invalidated"] == 2

    def test_drop_table_raises_typed_error_not_a_stale_plan(self, db):
        db.sql(ROLLUP)
        db.drop_table("t")
        with pytest.raises(CatalogError):
            db.sql(ROLLUP)
        stats = cache_stats(db)
        assert stats["invalidated"] == 1 and stats["entries"] == 0

    def test_reregister_with_a_different_schema_invalidates(self, db):
        db.sql(STAR)
        db.register_table("t", Table.from_rows(
            ["k", "label"], [INT64, STRING], [(1, "a"), (9, "b")]))
        assert db.sql(STAR).table.to_rows() == [(1, "a")]
        assert cache_stats(db)["invalidated"] == 1

    def test_reregister_with_an_equal_schema_keeps_plan_not_rows(self, db):
        db.sql(ROLLUP)
        db.sql(ROLLUP)
        statement = cached(db, ROLLUP)
        db.register_table("t", make_table(70))
        assert cached(db, ROLLUP) is statement
        assert sum(r[1] for r in db.sql(ROLLUP).table.to_rows()) == 70

    def test_reregistered_function_invalidates(self, db):
        narrow = Schema(["a"], [INT64])
        wide = Schema(["a", "b"], [INT64, INT64])
        db.register_function(
            "gen", lambda: Table(narrow, {"a": np.arange(3)}), narrow)
        text = "SELECT * FROM gen()"
        assert db.sql(text).table.schema.names == ["a"]
        statement = cached(db, text)
        # same schema: the plan stands, the rows are the new function's
        db.register_function(
            "gen", lambda: Table(narrow, {"a": np.arange(5)}), narrow)
        assert cached(db, text) is statement
        assert db.sql(text).table.num_rows == 5
        # different schema: the statement is re-bound
        db.register_function(
            "gen", lambda: Table(wide, {"a": np.arange(2),
                                        "b": np.arange(2)}), wide)
        assert db.sql(text).table.schema.names == ["a", "b"]
        assert cache_stats(db)["invalidated"] == 1

    def test_older_pinned_snapshot_does_not_get_newer_statement(self, db):
        old = db.catalog.snapshot()
        db.alter_table_add_column("t", "tag", STRING)
        assert len(db.sql(STAR).table.schema.names) == 4   # cached: new
        pinned = db.service.execute(STAR, snapshot=old)
        assert pinned.table.schema.names == ["grp", "k", "val"]
        assert len(db.sql(STAR).table.schema.names) == 4


def below(n: int) -> str:
    return f"SELECT * FROM t WHERE k < {n}"


class TestTemplates:
    def test_a_text_hit_never_reaches_the_templates(self, db):
        db.sql(below(5))
        db.sql(below(6))
        before = cache_stats(db)
        assert (before["templates"], before["template_misses"],
                before["template_hits"]) == (1, 1, 1)
        for _ in range(3):
            db.sql(below(5))
        after = cache_stats(db)
        assert after["hits"] == before["hits"] + 3
        assert {k: v for k, v in after.items() if k != "hits"} == \
            {k: v for k, v in before.items() if k != "hits"}

    def test_dbapi_parameters_are_literals_like_any_other(self, db):
        """``_substitute`` renders the parameters into the text and the
        scan strips them again: one operation, one template."""
        connection = dbapi.connect(db)
        cursor = connection.cursor()
        operation = "SELECT count(*) AS n FROM t WHERE grp = ? AND val < ?"
        assert cursor.execute(operation, (2, 0.5)).fetchall() == \
            db.sql("SELECT count(*) AS n FROM t WHERE grp = 2 AND val < 0.5"
                   ).table.to_rows()
        cursor.execute(operation, (3, 0.25))
        connection.close()
        stats = cache_stats(db)
        assert (stats["template_misses"], stats["template_hits"]) == (1, 1)
        assert stats["hits"] == 1       # (the same text through db.sql)

    def test_append_keeps_the_template(self, db):
        assert db.sql(below(5)).table.num_rows == 5
        db.append_rows("t", make_table(500, offset=3000))
        assert db.sql(below(3004)).table.num_rows == 3004
        stats = cache_stats(db)
        assert (stats["template_hits"], stats["template_invalidated"]) == \
            (1, 0)

    def test_add_column_invalidates_the_template(self, db):
        assert db.sql(below(5)).table.schema.names == ["grp", "k", "val"]
        db.alter_table_add_column("t", "tag", STRING, default="x")
        assert db.sql(below(6)).table.schema.names == \
            ["grp", "k", "tag", "val"]
        stats = cache_stats(db)
        assert (stats["template_invalidated"], stats["template_misses"],
                stats["template_hits"], stats["templates"]) == (1, 2, 0, 1)
        assert db.sql(below(7)).table.num_rows == 7     # the new template
        assert cache_stats(db)["template_hits"] == 1

    def test_rename_column_invalidates_the_template(self, db):
        text = "SELECT val FROM t WHERE k < {}"
        db.sql(text.format(5))
        db.rename_column("t", "val", "amount")
        with pytest.raises(SqlError):
            db.sql(text.format(6))                  # ``val`` is gone
        stats = cache_stats(db)
        assert (stats["template_invalidated"], stats["templates"]) == (1, 0)

    def test_drop_table_raises_typed_error_not_a_stale_template(self, db):
        db.sql(below(5))
        db.drop_table("t")
        with pytest.raises(CatalogError):
            db.sql(below(6))
        stats = cache_stats(db)
        assert (stats["template_invalidated"], stats["templates"]) == (1, 0)

    def test_older_pinned_snapshot_binds_afresh(self, db):
        old = db.catalog.snapshot()
        db.alter_table_add_column("t", "tag", STRING)
        assert len(db.sql(below(5)).table.schema.names) == 4
        pinned = db.service.execute(below(6), snapshot=old)
        assert pinned.table.schema.names == ["grp", "k", "val"]
        assert pinned.table.num_rows == 6
        # the template now stands for the older schema; the newer one
        # re-binds in its turn — never a plan from the wrong snapshot
        assert len(db.sql(below(7)).table.schema.names) == 4
        assert cache_stats(db)["template_invalidated"] == 2

    def test_lru_bound(self, db, monkeypatch):
        monkeypatch.setattr(exec_service, "STATEMENT_CACHE_ENTRIES", 3)
        shapes = [f"SELECT k, val FROM t WHERE k < {{}} AND grp {op} 2"
                  for op in ("<>", "=", "<", ">", "<=")]
        for shape in shapes[:3]:
            db.sql(shape.format(50))
        db.sql(shapes[0].format(51))        # touch: most recently used
        for shape in shapes[3:]:
            db.sql(shape.format(50))        # evicts shapes[1], shapes[2]
        stats = cache_stats(db)
        assert stats["templates"] == 3 and stats["template_hits"] == 1
        db.sql(shapes[0].format(52))
        assert cache_stats(db)["template_hits"] == 2
        db.sql(shapes[1].format(52))
        assert cache_stats(db)["template_hits"] == 2
        with db.service._statement_lock:
            assert len(db.service._literal_roles) <= 3


class TestConcurrency:
    def test_threads_missing_one_template_leave_one_entry(self, db):
        """Every thread issues its own texts of one shape: all miss by
        text, the first few miss the template too (a race none of them
        loses: each binds in full), and one template is left."""
        threads, repeats = 8, 25
        wrong: list = []

        def worker(index: int) -> None:
            for repeat in range(repeats):
                n = 1 + index * repeats + repeat
                rows = db.sql(below(n)).table.num_rows
                if rows != n:
                    wrong.append((n, rows))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker, args=(index,))
                    for index in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert not wrong
        stats = cache_stats(db)
        # (n = 1 equals the binder's own constant: a template of its own)
        assert stats["templates"] == 2
        assert stats["misses"] == threads * repeats
        assert stats["template_hits"] + stats["template_misses"] == \
            stats["misses"]
        assert stats["template_misses"] <= threads + 1
        db.recycler.cache.check_invariants()
        db.recycler.graph.check_invariants()

    def test_one_text_from_many_threads(self, db):
        """More threads than cores, a short switch interval: every
        thread gets the reference rows, and no lookup is lost from the
        counters (they are read-modify-write under the cache's lock)."""
        expected = db.sql(ROLLUP).table.to_rows()
        threads, repeats = 8, 40
        wrong: list = []

        def worker() -> None:
            for _ in range(repeats):
                rows = db.sql(ROLLUP).table.to_rows()
                if rows != expected:
                    wrong.append(rows)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker)
                    for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert not wrong
        stats = cache_stats(db)
        assert stats["hits"] + stats["misses"] == threads * repeats + 1
        assert stats["entries"] == 1
        db.recycler.cache.check_invariants()
        db.recycler.graph.check_invariants()
