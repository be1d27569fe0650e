"""Session/database-level cooperative cancellation.

The expensive primitive is an event-gated table function: its first
invocation signals ``started`` and blocks on ``go`` (with a safety
timeout so a broken test cannot hang the suite), which lets the tests
park a producer mid-execution deterministically, stall consumers on it,
and then cancel at a known point.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import (Database, QueryCancelled, QueryTimeout, RecyclerConfig,
                   Table)
from repro.columnar import FLOAT64, INT64, Schema

QUERY = "SELECT g, sum(v) AS s FROM t GROUP BY g"
FN_QUERY = "SELECT g, sum(v) AS s FROM slow_groups() GROUP BY g"
FN_SCHEMA = Schema(["g", "v"], [INT64, FLOAT64])


class GatedFunction:
    """Table function whose first ``gate_calls`` invocations block."""

    def __init__(self, table: Table, gate_calls: int = 1,
                 safety_timeout: float = 30.0) -> None:
        self.table = table
        self.gate_calls = gate_calls
        self.safety_timeout = safety_timeout
        self.started = threading.Event()
        self.go = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self) -> Table:
        with self._lock:
            self.calls += 1
            gated = self.calls <= self.gate_calls
        if gated:
            self.started.set()
            self.go.wait(self.safety_timeout)
        return self.table


def make_db(**config) -> tuple[Database, GatedFunction]:
    rng = np.random.default_rng(23)
    n = 20000
    columns = {"g": rng.integers(0, 8, n), "v": rng.uniform(0, 1, n)}
    table = Table(FN_SCHEMA, columns)
    db = Database(RecyclerConfig(mode="spec", **config))
    db.register_table("t", table)
    gate = GatedFunction(table)
    db.register_function("slow_groups", gate, FN_SCHEMA,
                         invocation_cost=50_000.0)
    return db, gate


@pytest.fixture
def db():
    return make_db()[0]


class TestTimeouts:
    def test_db_sql_timeout(self, db):
        with pytest.raises(QueryTimeout):
            db.sql(QUERY, timeout=0.0)
        assert len(db.recycler.inflight) == 0
        assert len(db.recycler.cache) == 0
        # the database stays fully usable afterwards
        assert db.sql(QUERY).table.num_rows == 8

    def test_db_execute_timeout(self, db):
        plan = db.plan(QUERY)
        with pytest.raises(QueryTimeout):
            db.execute(plan, timeout=0.0)
        assert db.execute(db.plan(QUERY)).table.num_rows == 8

    def test_session_deadline_and_timeout(self, db):
        with db.connect() as session:
            with pytest.raises(QueryTimeout):
                session.sql(QUERY, timeout=0.0)
            with pytest.raises(QueryTimeout):
                session.execute(db.plan(QUERY),
                                deadline=time.monotonic() - 1.0)
            # aborted queries are not counted; the session still works
            assert session.summary()["queries"] == 0
            assert session.sql(QUERY).table.num_rows == 8
            assert session.summary()["queries"] == 1

    def test_deadline_fires_while_stalled_on_producer(self):
        db, gate = make_db()
        producer_done = threading.Event()

        def produce():
            try:
                db.connect().sql(FN_QUERY)
            finally:
                producer_done.set()

        producer = threading.Thread(target=produce)
        producer.start()
        assert gate.started.wait(10)
        # the consumer matches the producer's in-flight nodes and
        # stalls; its deadline must fire during the stall, well before
        # the 30 s inflight safety timeout
        with db.connect() as consumer:
            began = time.monotonic()
            with pytest.raises(QueryTimeout):
                consumer.sql(FN_QUERY, timeout=0.3)
            assert time.monotonic() - began < 10.0
        gate.go.set()
        assert producer_done.wait(10)

    def test_pool_timeout_per_query(self, db):
        with db.pool(workers=2) as pool:
            future = pool.submit(QUERY, timeout=0.0)
            assert isinstance(future.exception(timeout=10), QueryTimeout)
            # an unbounded query on the same pool still succeeds
            assert pool.submit(QUERY).result().table.num_rows == 8


class TestCancelMidExecution:
    def test_cancelled_producer_publishes_nothing(self):
        db, gate = make_db()
        session = db.connect()
        outcome: list[object] = []

        def produce():
            try:
                outcome.append(session.sql(FN_QUERY))
            except QueryCancelled as exc:
                outcome.append(exc)

        producer = threading.Thread(target=produce)
        producer.start()
        assert gate.started.wait(10)
        # parked inside the table function: cancel, then release the gate
        assert session.cancel() is True
        gate.go.set()
        producer.join(timeout=10)
        assert not producer.is_alive()
        assert isinstance(outcome[0], QueryCancelled)
        # not counted, no cache entry, no stale in-flight registration
        assert session.summary()["queries"] == 0
        assert len(db.recycler.cache) == 0
        assert len(db.recycler.inflight) == 0
        session.close()

    def test_cancelled_producer_wakes_blocked_consumer(self):
        # consumer must be woken by the producer's cancellation, not by
        # the inflight safety timeout — which this config makes huge
        db, gate = make_db(inflight_wait_timeout=120.0)
        producer_session = db.connect()
        produced: list[object] = []
        consumed: list[object] = []

        def produce():
            try:
                produced.append(producer_session.sql(FN_QUERY))
            except QueryCancelled as exc:
                produced.append(exc)

        def consume():
            with db.connect() as consumer:
                consumed.append(consumer.sql(FN_QUERY).table.to_rows())

        producer = threading.Thread(target=produce)
        producer.start()
        assert gate.started.wait(10)
        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.3)  # let the consumer reach its in-flight stall
        producer_session.cancel()
        gate.go.set()
        producer.join(timeout=10)
        # woken consumer recomputes (second function call is ungated)
        consumer.join(timeout=15)
        assert not producer.is_alive() and not consumer.is_alive()
        assert isinstance(produced[0], QueryCancelled)
        assert consumed and consumed[0] == \
            db.sql(FN_QUERY).table.to_rows()
        assert len(db.recycler.inflight) == 0
        producer_session.close()

    def test_pool_shutdown_cancels_running_queries(self):
        db, gate = make_db()
        gate.gate_calls = 2
        pool = db.pool(workers=2)
        futures = [pool.submit(FN_QUERY), pool.submit(FN_QUERY)]
        assert gate.started.wait(10)
        # both workers are executing (a session exists once its worker
        # starts a query): inside the gated function, or stalled on the
        # first producer
        deadline = time.time() + 10
        while len(pool.sessions()) < 2 and time.time() < deadline:
            time.sleep(0.01)
        assert len(pool.sessions()) == 2
        closer = threading.Thread(
            target=lambda: pool.close(wait=True, cancel_pending=True))
        closer.start()
        # wait until close()'s sweep has marked every worker session,
        # then open the gate: from here no query can complete — parked
        # ones run into tripped tokens, late starters are born cancelled
        deadline = time.time() + 10
        while time.time() < deadline:
            sessions = pool.sessions()
            if len(sessions) == 2 and \
                    all(s._cancel_all for s in sessions):
                break
            time.sleep(0.01)
        gate.go.set()
        closer.join(timeout=15)
        assert not closer.is_alive()
        # both running queries were aborted mid-execution: nothing
        # reached the cache and nothing is left registered
        for future in futures:
            assert isinstance(future.exception(timeout=10),
                              QueryCancelled)
        assert len(db.recycler.inflight) == 0
        assert len(db.recycler.cache) == 0
