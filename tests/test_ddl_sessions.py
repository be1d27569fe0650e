"""Online DDL under concurrent sessions: the stale-publish race, closed.

The deterministic primitive (pattern from
``tests/test_cancellation_sessions.py``): a gated table function parks a
*producer* query mid-execution at a known point — after its catalog
snapshot is pinned and its store registrations are planted, before it
scans the base table to completion.  DDL is then applied while the
producer is parked, the gate opens, and the assertions check exactly
what the producer published and what later queries observe.

The headline pair:

* ``test_old_ordering_serves_stale_entry`` reproduces the seed bug — an
  invalidate-*then*-swap without a version bump lets the parked producer
  publish its old-table result *after* the invalidation sweep, and the
  recycler then serves that permanently stale entry to new queries;
* ``test_new_ordering_rejects_stale_publish`` shows the fix — swap and
  version bump first, invalidation second, and version-tagged admission
  rejects the producer's late publication, so a new query recomputes
  from the new table.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64, Schema
from repro.columnar.catalog import TableEntry, _compute_stats
from repro.errors import CatalogError

T_SCHEMA = Schema(["g", "v"], [INT64, FLOAT64])
B_SCHEMA = Schema(["bg"], [INT64])
#: joins t against the gated function, so the root store depends on
#: both the base table and the blocker
QUERY = ("SELECT g, sum(v) AS sv FROM t, blocker()"
         " WHERE g = bg GROUP BY g")


def group_table(seed: int, n: int = 20000) -> Table:
    rng = np.random.default_rng(seed)
    return Table(T_SCHEMA, {"g": rng.integers(0, 8, n),
                            "v": rng.uniform(0, 1, n)})


class GatedFunction:
    """Table function whose first ``gate_calls`` invocations block."""

    def __init__(self, gate_calls: int = 1,
                 safety_timeout: float = 30.0) -> None:
        self.table = Table(B_SCHEMA, {"bg": np.arange(8)})
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


def make_db(table: Table, gated: bool = True,
            **config) -> tuple[Database, GatedFunction]:
    db = Database(RecyclerConfig(mode="spec", **config))
    db.register_table("t", table)
    gate = GatedFunction(gate_calls=1 if gated else 0)
    db.register_function("blocker", gate, B_SCHEMA,
                         invocation_cost=50_000.0)
    return db, gate


def expected_rows(table: Table) -> list:
    db, _ = make_db(table, gated=False)
    rows = db.sql(QUERY).table.to_rows()
    db.close()
    return rows


OLD_TABLE = group_table(seed=23)
NEW_TABLE = group_table(seed=99, n=10000)


@pytest.fixture(scope="module")
def old_rows():
    return expected_rows(OLD_TABLE)


@pytest.fixture(scope="module")
def new_rows():
    return expected_rows(NEW_TABLE)


def park_producer(db, gate):
    """Start QUERY on its own session/thread; returns (thread, box)
    once the producer is parked inside the gated function."""
    box: list[object] = []

    def produce():
        with db.connect() as session:
            try:
                box.append(session.sql(QUERY).table.to_rows())
            except BaseException as exc:  # surfaced by the test
                box.append(exc)

    thread = threading.Thread(target=produce)
    thread.start()
    assert gate.started.wait(10)
    return thread, box


class TestStalePublishRace:
    def test_premise_producer_result_is_cached(self, old_rows):
        """Baseline: without DDL, the parked producer's result is
        admitted and a repeat query reuses it — the very mechanism the
        race corrupts."""
        db, gate = make_db(OLD_TABLE)
        producer, box = park_producer(db, gate)
        gate.go.set()
        producer.join(timeout=15)
        assert box == [old_rows]
        again = db.sql(QUERY)
        assert again.table.to_rows() == old_rows
        assert again.record.num_reused >= 1
        db.close()

    def test_old_ordering_serves_stale_entry(self, old_rows, new_rows):
        """Seed-bug reproduction: invalidate *before* swapping, with no
        version bump (exactly what ``register_table`` used to do) —
        the parked producer publishes its old-table result after the
        sweep and the recycler serves it forever."""
        db, gate = make_db(OLD_TABLE)
        producer, box = park_producer(db, gate)
        # --- the old ordering: sweep first … ---
        db.recycler.invalidate_table("t")
        # … then swap the table without bumping the version (emulating
        # the pre-versioning catalog).
        entry = TableEntry(name="t", table=NEW_TABLE)
        entry.column_stats = _compute_stats(NEW_TABLE)
        db.catalog._tables["t"] = entry
        gate.go.set()
        producer.join(timeout=15)
        assert not producer.is_alive()
        assert box == [old_rows]
        # the live catalog holds the new table …
        assert db.catalog.table("t") is NEW_TABLE
        # … yet the stale entry is served: the race, demonstrated.
        stale = db.sql(QUERY)
        assert stale.record.num_reused >= 1
        assert stale.table.to_rows() == old_rows
        assert stale.table.to_rows() != new_rows
        db.close()

    def test_new_ordering_rejects_stale_publish(self, old_rows,
                                                new_rows):
        """The fix: ``Database.register_table`` swaps + bumps first,
        invalidates second, and version-tagged admission rejects the
        parked producer's late publication — a new query recomputes
        from the new table."""
        db, gate = make_db(OLD_TABLE)
        producer, box = park_producer(db, gate)
        db.register_table("t", NEW_TABLE)
        gate.go.set()
        producer.join(timeout=15)
        assert not producer.is_alive()
        # snapshot isolation: the producer still answers from the table
        # incarnation it pinned, never a mix
        assert box == [old_rows]
        # its publication was version-rejected, so the fresh query
        # recomputes from the new table
        fresh = db.sql(QUERY)
        assert fresh.table.to_rows() == new_rows
        summary = db.summary()["catalog"]
        assert summary["version_rejected"] >= 1
        assert summary["inflight_aborted"] >= 1
        assert len(db.recycler.inflight) == 0
        db.close()

    def test_ddl_wakes_stalled_consumer(self, old_rows):
        """A consumer blocked on the parked producer's in-flight node is
        woken by the DDL's producer abort (not the huge safety timeout)
        and recomputes against its own pre-DDL snapshot."""
        db, gate = make_db(OLD_TABLE, inflight_wait_timeout=120.0)
        producer, produced = park_producer(db, gate)
        consumed: list[object] = []

        def consume():
            with db.connect() as consumer:
                consumed.append(consumer.sql(QUERY).table.to_rows())

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.3)  # let the consumer reach its in-flight stall
        began = time.monotonic()
        db.register_table("t", NEW_TABLE)
        gate.go.set()
        consumer.join(timeout=15)
        assert not consumer.is_alive()
        assert time.monotonic() - began < 10.0
        # the consumer pinned its snapshot before the DDL: it owes (and
        # delivers) the old-table answer, recomputed, not the
        # producer's result and not a mixed one
        assert consumed == [old_rows]
        producer.join(timeout=15)
        assert produced == [old_rows]
        assert len(db.recycler.inflight) == 0
        db.close()


class TestOnlineDdlApi:
    def test_drop_table_mid_flight(self, old_rows):
        db, gate = make_db(OLD_TABLE)
        producer, box = park_producer(db, gate)
        db.drop_table("t")
        gate.go.set()
        producer.join(timeout=15)
        # the in-flight query completes against its snapshot
        assert box == [old_rows]
        # new statements fail to bind; nothing stale is cached
        with pytest.raises(CatalogError):
            db.sql(QUERY)
        assert all("t" not in e.node.tables
                   for e in db.recycler.cache.entries())
        db.close()

    def test_append_rows_invalidates(self):
        table = Table(T_SCHEMA, {"g": np.array([0, 1]),
                                 "v": np.array([1.0, 2.0])})
        db, _ = make_db(table, gated=False)
        q = "SELECT g, sum(v) AS sv FROM t GROUP BY g"
        assert db.sql(q).table.sorted_rows() == [(0, 1.0), (1, 2.0)]
        db.append_rows("t", [(0, 5.0)])
        assert db.catalog.table_version("t") == 2
        assert db.sql(q).table.sorted_rows() == [(0, 6.0), (1, 2.0)]
        db.close()

    def test_empty_append_changes_nothing(self):
        """Appending zero rows used to bump the version and evict every
        dependent, so the next read ran cold.  It is a no-op now: same
        version, no sweep, no statistics merge, the next read warm."""
        db, _ = make_db(group_table(seed=5, n=2000), gated=False)
        q = "SELECT g, sum(v) AS sv, count(*) AS n FROM t GROUP BY g"
        expected = db.sql(q).table.to_rows()
        assert len(db.recycler.cache) == 1  # premise: the root is cached
        before = db.summary()
        merges = db.catalog.stats_counters["incremental_merges"]
        db.append_rows("t", [])
        db.append_rows("t", Table(T_SCHEMA, {"g": np.array([], np.int64),
                                             "v": np.array([])}))
        assert db.catalog.table_version("t") == 1
        assert db.catalog.stats_counters["incremental_merges"] == merges
        after = db.summary()["catalog"]
        assert after["invalidations"] == before["catalog"]["invalidations"]
        assert after["ddl_clock"] == before["catalog"]["ddl_clock"]
        assert len(db.recycler.cache) == 1
        result = db.sql(q)
        assert result.table.to_rows() == expected
        assert result.record.num_reused == 1
        db.close()

    def test_register_function_invalidates(self):
        """Re-registering a table function evicts its cached dependents
        (used to be silently skipped, unlike ``register_table`` —
        ``Recycler.invalidate_function`` existed but was never called,
        leaving version-dead entries squatting in the cache)."""
        db, _ = make_db(OLD_TABLE, gated=False)
        q = "SELECT sum(bg) AS s FROM blocker()"
        assert db.sql(q).table.to_rows() == [(28,)]
        cached_before = len(db.recycler.cache)
        assert cached_before >= 1  # premise: the result was cached
        small = Table(B_SCHEMA, {"bg": np.arange(3)})
        db.register_function("blocker", lambda: small, B_SCHEMA,
                             invocation_cost=50_000.0)
        # dependents are gone from the cache, not just unreachable
        assert all("blocker" not in e.node.functions
                   for e in db.recycler.cache.entries())
        assert db.sql(q).table.to_rows() == [(3,)]
        summary = db.summary()["catalog"]
        assert summary["invalidations"] >= 1
        assert summary["entries_evicted"] >= cached_before
        db.close()

    def test_prebuilt_plan_rejects_retyped_table(self):
        """A prebuilt plan memoizes its schemas; replacing the table
        with same-named, differently-typed columns must fail validation
        (not execute against stale types)."""
        from repro.columnar import STRING
        from repro.errors import PlanError

        db, _ = make_db(OLD_TABLE, gated=False)
        plan = db.plan("SELECT g, sum(v) AS sv FROM t GROUP BY g")
        retyped = Table(Schema(["g", "v"], [INT64, STRING]),
                        {"g": np.array([1]), "v": np.array(["a"])})
        db.register_table("t", retyped)
        with pytest.raises(PlanError):
            db.execute(plan)
        db.close()

    def test_session_execute_rejects_retyped_table(self):
        """``Session.execute`` must validate a prebuilt plan against a
        freshly pinned snapshot, exactly like ``Database.execute``."""
        from repro.columnar import STRING
        from repro.errors import PlanError

        db, _ = make_db(OLD_TABLE, gated=False)
        plan = db.plan("SELECT g, sum(v) AS sv FROM t GROUP BY g")
        with db.connect() as session:
            assert session.execute(plan).table.num_rows == 8
            retyped = Table(Schema(["g", "v"], [INT64, STRING]),
                            {"g": np.array([1]), "v": np.array(["a"])})
            db.register_table("t", retyped)
            with pytest.raises(PlanError):
                session.execute(plan)
        db.close()

    def test_prebuilt_plan_rejects_retyped_function(self):
        from repro.errors import PlanError

        db, _ = make_db(OLD_TABLE, gated=False)
        plan = db.plan("SELECT sum(bg) AS s FROM blocker()")
        other = Schema(["bg", "extra"], [INT64, INT64])
        table = Table(other, {"bg": np.arange(3),
                              "extra": np.arange(3)})
        db.register_function("blocker", lambda: table, other)
        with pytest.raises(PlanError):
            db.execute(plan)
        db.close()

    def test_summary_catalog_counters(self):
        db, _ = make_db(OLD_TABLE, gated=False)
        summary = db.summary()["catalog"]
        assert summary["tables"] == 1
        assert summary["functions"] == 1
        assert summary["ddl_clock"] == 2  # table + function registration
        before = summary["invalidations"]
        db.register_table("t", NEW_TABLE)
        db.drop_table("t")
        summary = db.summary()["catalog"]
        assert summary["tables"] == 0
        assert summary["ddl_clock"] == 4
        assert summary["invalidations"] == before + 2
        db.close()
