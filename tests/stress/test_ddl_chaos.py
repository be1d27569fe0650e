"""DDL-chaos stress: online schema changes racing replayed query traffic.

Two complementary suites:

* **Deterministic replay** — the seeded-admission interleaver runs a
  16-session workload where stream 0 interleaves real DDL
  (``register_table`` / ``append_rows`` / ``drop_table``+recreate) with
  probe queries on the DDL'd table, while every other stream hammers
  static tables.  Per-stream order is preserved by every admission
  permutation, so the same DDL interleaving replays serially: every
  query's rows must be **byte-identical** to the serial run, with the
  recycler's version-tagged cache racing the DDL for real.

* **Torn-read hunt** (non-deterministic) — a writer thread swaps a
  self-describing table (every row of incarnation *v* carries ``ver ==
  v`` and each incarnation has a distinct row count) under concurrent
  reader sessions.  Snapshot isolation demands each observed result is
  *internally consistent* (``min(ver) == max(ver)``, count matching that
  incarnation — never a mix of old and new rows) and *per-session
  monotone* (a session can never travel back to an older incarnation —
  exactly what a stale cache entry served after DDL would look like).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from interleave import DeterministicInterleaver, serial_reference

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64, Schema

N_STREAMS = 16
SEEDS = (7, 1337)

BASE_SCHEMA = Schema(["g", "v"], [INT64, FLOAT64])
CHAOS_SCHEMA = Schema(["ver", "x"], [INT64, FLOAT64])

BASE_QUERIES = [
    "SELECT g, sum(v) AS s FROM base GROUP BY g",
    "SELECT g, count(*) AS c FROM base WHERE v > 0.5 GROUP BY g",
    "SELECT g, min(v) AS lo, max(v) AS hi FROM base GROUP BY g",
    "SELECT sum(v) AS total FROM base WHERE g < 8",
    "SELECT g, avg(v) AS m FROM base WHERE v < 0.25 GROUP BY g",
]

CHAOS_PROBE = ("SELECT min(ver) AS lo, max(ver) AS hi, count(*) AS n,"
               " sum(x) AS sx FROM chaos")


def chaos_table(version: int) -> Table:
    """Incarnation ``version``: every row tagged with it, distinct row
    count, deterministic payload."""
    n = 64 + 16 * version
    rng = np.random.default_rng(1000 + version)
    return Table(CHAOS_SCHEMA, {
        "ver": np.full(n, version, dtype=np.int64),
        "x": rng.uniform(0, 1, n)})


def chaos_rows(version: int) -> int:
    return 64 + 16 * version


def build_db(**config) -> Database:
    rng = np.random.default_rng(42)
    n = 20000
    db = Database(RecyclerConfig(mode="spec", **config))
    db.register_table("base", Table(BASE_SCHEMA, {
        "g": rng.integers(0, 16, n), "v": rng.uniform(0, 1, n)}))
    db.register_table("chaos", chaos_table(1))
    return db


# ----------------------------------------------------------------------
# deterministic replay
# ----------------------------------------------------------------------
def ddl_register(version: int):
    def unit(db, session):
        db.register_table("chaos", chaos_table(version))
        return [("register", version)]
    return unit


def ddl_append(version: int, tag: int):
    """Append more rows of the same incarnation tag (stays
    self-consistent: ``ver`` is uniform across old and new rows)."""
    def unit(db, session):
        extra = Table(CHAOS_SCHEMA, {
            "ver": np.full(8, version, dtype=np.int64),
            "x": np.full(8, float(tag))})
        db.append_rows("chaos", extra)
        return [("append", version, tag)]
    return unit


def ddl_drop_recreate(version: int):
    def unit(db, session):
        db.drop_table("chaos")
        db.register_table("chaos", chaos_table(version))
        return [("recreate", version)]
    return unit


def ddl_streams() -> list[list[object]]:
    """Stream 0 = DDL + probes (session-sequential, so the interleaving
    is identical in serial and concurrent runs); streams 1..N = static
    traffic with heavy overlap."""
    ddl_stream: list[object] = [
        CHAOS_PROBE,
        ddl_register(2),
        CHAOS_PROBE,
        ddl_append(2, tag=1),
        CHAOS_PROBE,
        ddl_drop_recreate(3),
        CHAOS_PROBE,
        ddl_register(4),
        ddl_append(4, tag=2),
        CHAOS_PROBE,
    ]
    streams = [ddl_stream]
    for stream_id in range(1, N_STREAMS):
        queries = [BASE_QUERIES[(stream_id + k) % len(BASE_QUERIES)]
                   for k in range(4)]
        streams.append(queries)
    return streams


@pytest.fixture(scope="module")
def ddl_setup():
    streams = ddl_streams()
    reference_db = build_db()
    reference = serial_reference(reference_db, streams)
    reference_db.close()
    return streams, reference


class TestDdlChaosReplay:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_identical_to_serial(self, ddl_setup, seed):
        streams, reference = ddl_setup
        db = build_db()
        runner = DeterministicInterleaver(db, seed=seed, slots=8)
        result = runner.run(streams)
        assert len(result.rows) == sum(len(s) for s in streams)
        for key, rows in result.rows.items():
            assert rows == reference[key], key
        # the recycler stayed consistent under DDL fire
        db.recycler.graph.check_invariants()
        db.recycler.cache.check_invariants()
        assert len(db.recycler.inflight) == 0
        # no surviving cache entry is behind the live catalog
        live = db.catalog
        for entry in db.recycler.cache.entries():
            tables, functions = live.versions_for(
                entry.node.tables, entry.node.functions)
            assert entry.versions_match(tables, functions), entry.node
        summary = db.summary()["catalog"]
        assert summary["invalidations"] >= 5  # one per DDL unit
        db.close()

    def test_replay_with_background_maintenance(self, ddl_setup):
        """DDL chaos *and* aggressive truncation racing the traffic.
        A 256-byte cache evicts and rejects results mid-run, so the rule
        has idle subtrees to truncate (a few nodes a run) while queries and
        DDL race it."""
        streams, reference = ddl_setup
        db = build_db(truncate_min_idle_events=8, cache_capacity=256)
        stop = threading.Event()
        errors: list[BaseException] = []

        def maintainer():
            try:
                while not stop.is_set():
                    db.maintain()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        chaos = threading.Thread(target=maintainer)
        chaos.start()
        try:
            runner = DeterministicInterleaver(db, seed=SEEDS[0], slots=8)
            result = runner.run(streams)
        finally:
            stop.set()
            chaos.join(timeout=10)
        assert not errors, errors
        for key, rows in result.rows.items():
            assert rows == reference[key], key
        assert db.summary()["maintenance"]["nodes_truncated"] > 0
        db.recycler.graph.check_invariants()
        db.recycler.cache.check_invariants()
        assert len(db.recycler.inflight) == 0
        # no dead node outlives the idle window: once every snapshot
        # pinned before a DDL is gone, nothing stamps old-incarnation
        # history, and the first cycle past the window removes it
        statements = db.config.truncate_min_idle_events + 1
        for index in range(statements):
            db.sql(BASE_QUERIES[index % len(BASE_QUERIES)])
        db.maintain()
        graph = db.recycler.graph
        assert not [node for node in graph.nodes
                    if not node.matches_incarnations(db.catalog)]
        graph.check_invariants()
        db.close()


# ----------------------------------------------------------------------
# torn-read hunt
# ----------------------------------------------------------------------
class TestNoTornReads:
    N_READERS = 4
    N_SWAPS = 40

    def test_snapshots_never_mix_incarnations(self):
        db = build_db()
        writer_done = threading.Event()
        errors: list[str] = []
        error_lock = threading.Lock()

        def fail(message: str) -> None:
            with error_lock:
                errors.append(message)

        def writer():
            try:
                for version in range(2, 2 + self.N_SWAPS):
                    db.register_table("chaos", chaos_table(version))
            finally:
                writer_done.set()

        def reader(reader_id: int):
            last_seen = 0
            with db.connect() as session:
                while not (writer_done.is_set() and last_seen
                           >= 2 + self.N_SWAPS - 1):
                    rows = session.sql(CHAOS_PROBE).table.to_rows()
                    (lo, hi, n, _sx) = rows[0]
                    if lo != hi:
                        fail(f"reader {reader_id}: torn read"
                             f" lo={lo} hi={hi}")
                        return
                    if n != chaos_rows(lo):
                        fail(f"reader {reader_id}: incarnation {lo}"
                             f" with {n} rows (expected"
                             f" {chaos_rows(lo)}) — mixed result")
                        return
                    if lo < last_seen:
                        fail(f"reader {reader_id}: travelled back from"
                             f" incarnation {last_seen} to {lo} —"
                             f" stale cache entry served after DDL")
                        return
                    last_seen = lo
                    if writer_done.is_set() and \
                            last_seen >= 2 + self.N_SWAPS - 1:
                        return

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(self.N_READERS)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
        assert not writer_thread.is_alive()
        assert all(not t.is_alive() for t in threads)
        assert not errors, errors
        db.recycler.cache.check_invariants()
        db.recycler.graph.check_invariants()
        assert len(db.recycler.inflight) == 0
        db.close()
