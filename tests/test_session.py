"""Tests for the session/connection API (db.connect / db.pool)."""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro import Database, QueryCancelled, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64
from repro.session import SessionError


@pytest.fixture
def db():
    rng = np.random.default_rng(11)
    n = 20000
    db = Database(RecyclerConfig(mode="spec"))
    db.register_table("t", Table(
        Table.from_rows(["g", "v"], [INT64, FLOAT64], []).schema,
        {"g": rng.integers(0, 8, n), "v": rng.uniform(0, 1, n)}))
    return db


QUERY = "SELECT g, sum(v) AS s FROM t WHERE v > 0.5 GROUP BY g"


class TestSession:
    def test_connect_and_query(self, db):
        with db.connect() as session:
            result = session.sql(QUERY, label="first")
            assert result.table.num_rows > 0
            assert session.summary()["queries"] == 1
            assert result.record.label == "first"
        assert session.closed
        with pytest.raises(SessionError):
            session.sql(QUERY)

    def test_sessions_share_the_recycler(self, db):
        with db.connect() as one, db.connect() as two:
            assert one.session_id != two.session_id
            first = one.sql(QUERY)
            second = two.sql(QUERY)
            assert second.table.to_rows() == first.table.to_rows()
            assert second.record.num_reused >= 1
            # per-session totals stay separate; the recycler's merge
            assert one.summary()["queries"] == 1
            assert two.summary()["queries"] == 1
            assert db.summary()["queries"] == 2

    def test_session_summary(self, db):
        with db.connect() as session:
            session.sql(QUERY)
            session.sql(QUERY)
            summary = session.summary()
        assert summary["queries"] == 2
        assert summary["num_reused"] == 1
        assert summary["total_cost"] > 0

    def test_plain_db_sql_still_works(self, db):
        assert db.sql(QUERY).table.num_rows > 0


class TestSessionPool:
    def test_run_preserves_order(self, db):
        queries = [f"SELECT g, sum(v) AS s FROM t WHERE v > 0.{d}"
                   f" GROUP BY g" for d in (1, 2, 3)] * 2
        expected = [db.sql(sql).table.to_rows() for sql in queries]
        with db.pool(workers=3) as pool:
            results = pool.run(queries)
        assert [r.table.to_rows() for r in results] == expected

    def test_submit_future(self, db):
        with db.pool(workers=2) as pool:
            future = pool.submit(QUERY, label="bg")
            assert future.result().table.num_rows > 0

    def test_pool_summary_merges_sessions(self, db):
        with db.pool(workers=2) as pool:
            pool.run([QUERY] * 6)
            summary = pool.summary()
        assert summary["queries"] == 6
        assert 1 <= summary["sessions"] <= 2
        assert sum(s["queries"] for s in summary["per_session"]) == 6
        assert summary["recycler"]["queries"] == 6

    def test_closed_pool_rejects_work(self, db):
        pool = db.pool(workers=1)
        pool.close()
        with pytest.raises(SessionError):
            pool.submit(QUERY)

    def test_invalid_worker_count(self, db):
        with pytest.raises(SessionError):
            db.pool(workers=0)

    def test_plan_objects_accepted(self, db):
        plan = db.plan(QUERY)
        with db.pool(workers=2) as pool:
            results = pool.run([plan, QUERY])
        assert results[0].table.to_rows() == results[1].table.to_rows()


class TestPoolShutdownMidQuery:
    """Pool shutdown while queries are queued or executing: records
    still merge, stall-second accounting stays consistent, and nothing
    is left registered in the in-flight registry."""

    def queries(self, n):
        return [f"SELECT g, sum(v) AS s FROM t WHERE v > 0.{1 + i % 8}"
                f" GROUP BY g" for i in range(n)]

    def test_close_mid_queue_merges_records(self, db):
        pool = db.pool(workers=2)
        futures = [pool.submit(sql) for sql in self.queries(10)]
        # close immediately: in-flight and queued work drains (wait=True)
        pool.close(wait=True)
        results = [f.result() for f in futures]
        assert len(results) == 10
        summary = pool.summary()
        assert summary["queries"] == 10
        per_session = sum(s["queries"] for s in summary["per_session"])
        assert per_session == 10
        assert summary["stall_seconds"] == pytest.approx(
            sum(s["stall_seconds"] for s in summary["per_session"]))
        assert len(db.recycler.inflight) == 0

    def test_cancel_pending_drops_queue_keeps_accounting(self, db):
        pool = db.pool(workers=1)
        futures = [pool.submit(sql) for sql in self.queries(8)]
        pool.close(wait=True, cancel_pending=True)
        # three outcomes now: never started (CancelledError), finished
        # before the cancel landed, or aborted mid-execution
        cancelled = [f for f in futures if f.cancelled()]
        started = [f for f in futures if not f.cancelled()]
        completed = [f for f in started if f.exception() is None]
        aborted = [f for f in started if f.exception() is not None]
        assert len(cancelled) + len(completed) + len(aborted) == 8
        for future in cancelled:
            with pytest.raises(CancelledError):
                future.result()
        for future in aborted:
            assert isinstance(future.exception(), QueryCancelled)
        # every completed query is fully recorded, with its stall time;
        # aborted queries leave no record
        summary = pool.summary()
        assert summary["queries"] == len(completed)
        assert sum(s.summary()["queries"]
                   for s in pool.sessions()) == len(completed)
        records = [f.result().record for f in completed]
        assert all(r.stall_seconds >= 0.0 for r in records)
        # a cancelled shutdown leaves no in-flight registrations behind
        assert len(db.recycler.inflight) == 0

    def test_cancelled_session_query_aborts_or_completes(self, db):
        expected = db.sql(QUERY).table.to_rows()
        session = db.connect()
        started = threading.Event()
        outcome = []

        def run():
            started.set()
            try:
                outcome.append(("ok", session.sql(QUERY).table.to_rows()))
            except QueryCancelled:
                outcome.append(("cancelled", None))

        thread = threading.Thread(target=run)
        thread.start()
        assert started.wait(timeout=5)
        session.cancel()  # races the query: either order must be safe
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome
        kind, rows = outcome[0]
        if kind == "ok":  # the query won the race and finished
            assert rows == expected
            assert session.summary()["queries"] == 1
        else:  # aborted mid-execution: not counted, no side effects
            assert session.summary()["queries"] == 0
        assert len(db.recycler.inflight) == 0
        session.close()

    def test_cancel_without_active_query(self, db):
        with db.connect() as session:
            assert session.cancel() is False

    def test_stall_accounting_merges_after_shutdown(self, db):
        # overlapping identical queries force in-flight sharing, so some
        # session blocks; its stall seconds must survive the shutdown
        with db.pool(workers=4) as pool:
            results = pool.run([QUERY] * 12)
            summary = pool.summary()
        assert summary["queries"] == 12
        total = sum(r.record.stall_seconds for r in results)
        assert summary["stall_seconds"] == pytest.approx(total)
        assert summary["recycler"]["total_stall_seconds"] == \
            pytest.approx(total)
        assert len(db.recycler.inflight) == 0
