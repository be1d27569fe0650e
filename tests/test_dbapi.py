"""PEP 249 conformance tests for :mod:`repro.dbapi`."""

from __future__ import annotations

import datetime
import threading

import numpy as np
import pytest

import repro.dbapi as dbapi
from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64, STRING
from repro.columnar.types import DATE


@pytest.fixture
def db():
    rng = np.random.default_rng(7)
    n = 5000
    db = Database(RecyclerConfig(mode="spec"))
    db.register_table("t", Table(
        Table.from_rows(["g", "v"], [INT64, FLOAT64], []).schema,
        {"g": rng.integers(0, 8, n), "v": rng.uniform(0, 1, n)}))
    db.register_table("names", Table.from_rows(
        ["id", "name", "d"], [INT64, STRING, DATE],
        [(1, "ada", 700), (2, "bob", 800), (3, "o'brien", 900)]))
    return db


@pytest.fixture
def conn(db):
    with dbapi.connect(database=db) as conn:
        yield conn


QUERY = "SELECT g, sum(v) AS s FROM t GROUP BY g ORDER BY g"


class TestModuleGlobals:
    def test_globals(self):
        assert dbapi.apilevel == "2.0"
        assert isinstance(dbapi.threadsafety, int)
        assert dbapi.threadsafety == 2
        assert dbapi.paramstyle == "qmark"

    def test_exception_hierarchy(self):
        assert issubclass(dbapi.InterfaceError, dbapi.Error)
        assert issubclass(dbapi.DatabaseError, dbapi.Error)
        for cls in (dbapi.DataError, dbapi.OperationalError,
                    dbapi.IntegrityError, dbapi.InternalError,
                    dbapi.ProgrammingError, dbapi.NotSupportedError):
            assert issubclass(cls, dbapi.DatabaseError)
        # PEP 249 optional extension: exceptions as Connection attributes
        assert dbapi.Connection.ProgrammingError is dbapi.ProgrammingError


class TestFetchSemantics:
    def test_fetchone_exhausts(self, conn):
        cur = conn.cursor()
        cur.execute(QUERY)
        assert cur.rowcount == 8
        rows = []
        while (row := cur.fetchone()) is not None:
            rows.append(row)
        assert len(rows) == 8
        assert cur.fetchone() is None

    def test_fetchmany_default_arraysize(self, conn):
        cur = conn.cursor()
        cur.execute(QUERY)
        assert cur.arraysize == 1
        assert len(cur.fetchmany()) == 1
        cur.arraysize = 3
        assert len(cur.fetchmany()) == 3
        assert len(cur.fetchmany(100)) == 4  # remainder, not padded

    def test_fetchall_and_iteration(self, conn):
        cur = conn.cursor()
        rows = cur.execute(QUERY).fetchall()
        assert [int(r[0]) for r in rows] == list(range(8))
        assert cur.fetchall() == []  # cursor is exhausted
        iterated = list(conn.cursor().execute(QUERY))
        assert len(iterated) == 8

    def test_fetch_before_execute_raises(self, conn):
        cur = conn.cursor()
        with pytest.raises(dbapi.ProgrammingError):
            cur.fetchall()

    def test_results_match_database_sql(self, db, conn):
        direct = db.sql(QUERY).table.to_rows()
        via_dbapi = conn.cursor().execute(QUERY).fetchall()
        assert via_dbapi == direct

    def test_fetchmany_never_materializes_the_result(self, conn,
                                                     monkeypatch):
        """Regression: fetches stream from the columnar result — the
        full row list is never built, and peak buffered rows is bounded
        by the fetch size, not the result size."""
        from repro.columnar.table import Table as ColumnarTable

        def banned(self):
            raise AssertionError(
                "cursor fetch must not materialize via to_rows()")

        monkeypatch.setattr(ColumnarTable, "to_rows", banned)
        cur = conn.cursor()
        cur.execute("SELECT g, v FROM t")
        assert cur.rowcount == 5000
        total = 0
        while batch := cur.fetchmany(100):
            assert len(batch) <= 100
            total += len(batch)
        assert total == 5000
        assert cur.max_buffered_rows <= 100


class TestDescription:
    def test_names_and_type_codes(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT id, name, d FROM names ORDER BY id")
        assert [d[0] for d in cur.description] == ["id", "name", "d"]
        codes = [d[1] for d in cur.description]
        assert codes[0] == dbapi.NUMBER
        assert codes[1] == dbapi.STRING
        assert codes[2] == dbapi.DATETIME
        assert codes[1] != dbapi.NUMBER
        assert all(len(d) == 7 for d in cur.description)

    def test_description_none_before_execute(self, conn):
        assert conn.cursor().description is None


class TestParameters:
    def test_qmark_binding(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT id FROM names WHERE id > ? ORDER BY id", (1,))
        assert [int(r[0]) for r in cur.fetchall()] == [2, 3]

    def test_string_escaping(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT id FROM names WHERE name = ?", ("o'brien",))
        assert [int(r[0]) for r in cur.fetchall()] == [3]

    def test_placeholder_inside_literal_untouched(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT id FROM names WHERE name = '?' AND id > ?",
                    (0,))
        assert cur.fetchall() == []

    def test_date_and_bool_literals(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT id FROM names WHERE d >= ? AND ? ORDER BY id",
                    (datetime.date(1972, 3, 11), True))
        assert [int(r[0]) for r in cur.fetchall()] == [2, 3]

    def test_float_parameters_rendered_with_an_exponent(self, conn):
        """``repr(0.00001)`` is ``1e-05``: the lexer reads the exponent
        as part of the number, not as an identifier after it."""
        cur = conn.cursor()
        for value, expected in ((1e-05, 5000), (1e+16, 0), (-2.5e-05, 5000)):
            assert "e" in repr(value)
            cur.execute("SELECT count(*) AS n FROM t WHERE v > ?", (value,))
            assert cur.fetchall() == [(expected,)], value
        cur.execute("SELECT id FROM names WHERE id * ? > ? ORDER BY id",
                    (1e+16, 1.5e16))
        assert [int(r[0]) for r in cur.fetchall()] == [2, 3]

    def test_non_finite_float_parameter_rejected(self, conn):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(dbapi.ProgrammingError, match="non-finite"):
                conn.cursor().execute(
                    "SELECT id FROM names WHERE id > ?", (value,))

    def test_parameter_count_mismatch(self, conn):
        cur = conn.cursor()
        with pytest.raises(dbapi.ProgrammingError):
            cur.execute("SELECT id FROM names WHERE id = ?", (1, 2))
        with pytest.raises(dbapi.ProgrammingError):
            cur.execute("SELECT id FROM names WHERE id = ? AND id > ?",
                        (1,))

    def test_none_parameter_rejected(self, conn):
        with pytest.raises(dbapi.ProgrammingError):
            conn.cursor().execute("SELECT id FROM names WHERE id = ?",
                                  (None,))

    def test_executemany(self, conn):
        cur = conn.cursor()
        cur.executemany("SELECT id FROM names WHERE id = ?",
                        [(1,), (2,), (99,)])
        assert cur.rowcount == 2  # 1 + 1 + 0 rows across executions


class TestClosedErrors:
    def test_closed_cursor(self, conn):
        cur = conn.cursor()
        cur.close()
        with pytest.raises(dbapi.InterfaceError):
            cur.execute("SELECT id FROM names")
        with pytest.raises(dbapi.InterfaceError):
            cur.fetchall()

    def test_closed_connection(self, db):
        conn = dbapi.connect(database=db)
        cur = conn.cursor()
        conn.close()
        assert conn.closed
        with pytest.raises(dbapi.InterfaceError):
            conn.cursor()
        with pytest.raises(dbapi.InterfaceError):
            cur.execute("SELECT id FROM names")
        conn.close()  # idempotent

    def test_shared_database_survives_connection_close(self, db):
        with dbapi.connect(database=db) as conn:
            conn.cursor().execute(QUERY)
        assert not db.closed

    def test_private_database_closed_with_connection(self):
        conn = dbapi.connect()
        db = conn.database
        conn.close()
        assert db.closed


class TestTransactions:
    def test_commit_noop(self, conn):
        conn.commit()

    def test_rollback_not_supported(self, conn):
        with pytest.raises(dbapi.NotSupportedError):
            conn.rollback()


class TestErrorsAndStatistics:
    def test_bad_sql_is_programming_error(self, conn):
        with pytest.raises(dbapi.ProgrammingError):
            conn.cursor().execute("SELEC oops")
        with pytest.raises(dbapi.ProgrammingError):
            conn.cursor().execute("SELECT x FROM no_such_table")

    def test_cursor_statistics_track_reuse(self, db):
        with dbapi.connect(database=db) as a, \
                dbapi.connect(database=db) as b:
            cold = a.cursor()
            cold.execute(QUERY)
            warm = b.cursor()
            warm.execute(QUERY)
            assert cold.statistics["queries"] == 1
            # the second connection reuses what the first materialized
            # through the shared recycler
            assert warm.statistics["num_inserted"] == 0
            assert warm.statistics["num_reused"] >= 1

    def test_thread_reuse_across_connections(self, db):
        results = {}

        def worker(name):
            with dbapi.connect(database=db) as conn:
                cur = conn.cursor()
                cur.execute(QUERY)
                results[name] = (cur.fetchall(), dict(cur.statistics))

        first = threading.Thread(target=worker, args=("a",))
        first.start()
        first.join()
        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = results["a"][0]
        for name in ("t0", "t1", "t2", "t3"):
            rows, stats = results[name]
            assert rows == reference
            assert stats["num_inserted"] == 0  # warm across threads

    def test_frontend_stats_in_summary(self, db, conn):
        conn.cursor().execute(QUERY)
        service = db.summary()["service"]
        assert service["frontends"]["dbapi"]["queries"] >= 1
