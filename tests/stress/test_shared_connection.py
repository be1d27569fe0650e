"""Eight threads share one DB-API connection.

PEP 249 ``threadsafety == 2`` lets threads share a connection (each
with its own cursor), and the connection issues every query through its
one :class:`~repro.session.Session` — so a session must run queries
from several threads at once.  Under a tiny GIL switch interval, eight
threads run the SkyServer or the TPC-H statement mix on one connection;
every result must be byte-identical to a serial run, every query must
get its own producer token, every cursor must count what it issued, and
nothing may stay registered in flight afterwards.  A reader thread polls
the summaries throughout; at the end the session's and the recycler's
running totals must equal the sums over the records the queries
returned, so a total that loses a concurrent update fails the test.
A session pool's totals must be its sessions' totals added together.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable

import pytest

import repro.dbapi as dbapi
from repro import Database, RecyclerConfig, Table
from repro.workloads import skyserver, tpch
from twin_replay import table_bytes

THREADS = 8
#: statements per thread (SkyServer) / passes over each TPC-H stream:
#: enough issues that unsynchronised token minting would collide
SKY_PER_THREAD = 40
TPCH_PASSES = 4


def sky_mix():
    rows = 4000
    queries = [q.sql for q in
               skyserver.generate_workload(THREADS * SKY_PER_THREAD)]
    streams = [queries[i::THREADS] for i in range(THREADS)]
    return (lambda: skyserver.build_catalog(num_rows=rows)), streams


def tpch_mix():
    scale = 0.005
    streams = [[q.sql for q in stream] * TPCH_PASSES
               for stream in tpch.generate_streams(
                   THREADS, scale_factor=scale, patterns=[1, 3, 6, 10, 12])]
    return (lambda: tpch.build_catalog(scale_factor=scale)), streams


MIXES = {"skyserver": sky_mix, "tpch": tpch_mix}


def fetched_bytes(cursor) -> list:
    """The cursor's result in :func:`table_bytes` form."""
    names = [d[0] for d in cursor.description]
    types = [d[1] for d in cursor.description]
    return table_bytes(Table.from_rows(names, types, cursor.fetchall()))


#: ``QueryRecord`` field -> its running total in a ``Session.summary()``
SESSION_TOTALS = {"num_reused": "num_reused",
                  "num_materialized": "num_materialized",
                  "total_cost": "total_cost",
                  "stall_seconds": "stall_seconds",
                  "matching_seconds": "matching_seconds"}
#: ... and in ``Database.summary()`` (``optimizer.*``: its optimizer block)
RECYCLER_TOTALS = {"total_cost": "total_cost",
                   "matching_seconds": "total_matching_seconds",
                   "stall_seconds": "total_stall_seconds",
                   "num_matched": "optimizer.nodes_matched",
                   "num_inserted": "optimizer.nodes_inserted"}


def summary_value(summary: dict, key: str):
    for part in key.split("."):
        summary = summary[part]
    return summary


def assert_totals(summary: dict, records: list, fields: dict) -> None:
    """``summary`` counts exactly ``records``: counts equal, float sums
    equal up to the order the concurrent queries were added in."""
    assert summary["queries"] == len(records)
    for field, key in fields.items():
        expected = sum(getattr(record, field) for record in records)
        if isinstance(expected, int):
            assert summary_value(summary, key) == expected, key
        else:
            assert summary_value(summary, key) == \
                pytest.approx(expected, rel=1e-9), key


class SummaryReader:
    """A thread calling ``read`` until stopped, checking that the query
    count it sees never falls (a summary is a consistent read)."""

    def __init__(self, read: Callable[[], list[int]]) -> None:
        self.read = read
        self.reads = 0
        self.errors: list[BaseException] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        seen = None
        try:
            while True:
                counts = self.read()
                if seen is not None:
                    assert all(a >= b for a, b in zip(counts, seen)), \
                        (counts, seen)
                seen = counts
                self.reads += 1
                if self._stop.is_set():
                    return
        except BaseException as exc:  # surfaced by stop()
            self.errors.append(exc)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(30)
        assert not self._thread.is_alive()
        assert not self.errors, self.errors
        assert self.reads > 1


@pytest.fixture
def fine_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("mix", sorted(MIXES))
def test_threads_sharing_one_connection(mix, fine_switching):
    build_catalog, streams = MIXES[mix]()
    serial = Database(RecyclerConfig(mode="spec"), catalog=build_catalog())
    reference = [[table_bytes(serial.sql(text).table) for text in stream]
                 for stream in streams]
    serial.close()

    db = Database(RecyclerConfig(mode="spec"), catalog=build_catalog())
    tokens: list[object] = []
    prepare = db.recycler.prepare

    def recording_prepare(plan, **kwargs):
        tokens.append(kwargs["producer_token"])
        return prepare(plan, **kwargs)

    db.recycler.prepare = recording_prepare
    records: list = []
    finalize = db.recycler.finalize

    def recording_finalize(prepared, stats, **kwargs):
        record = finalize(prepared, stats, **kwargs)
        records.append(record)
        return record

    db.recycler.finalize = recording_finalize
    conn = dbapi.connect(database=db)
    session = conn._session
    reader = SummaryReader(lambda: [db.summary()["queries"],
                                    session.summary()["queries"]])
    cursors = [conn.cursor() for _ in streams]
    produced: list[list | None] = [None] * len(streams)
    errors: list[BaseException] = []
    start = threading.Barrier(len(streams))

    def run(i: int) -> None:
        try:
            start.wait()
            produced[i] = [fetched_bytes(cursors[i].execute(text))
                           for text in streams[i]]
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    reader.stop()
    assert not errors, errors
    assert produced == reference

    issued = sum(len(stream) for stream in streams)
    assert len(tokens) == issued
    assert len(set(tokens)) == issued
    assert sum(cur.statistics["queries"] for cur in cursors) == issued
    assert len(records) == issued
    assert_totals(session.summary(), records, SESSION_TOTALS)
    summary = db.summary()
    assert_totals(summary, records, RECYCLER_TOTALS)
    full_hits = sum(1 for r in records
                    if r.num_matched > 0 and r.num_inserted == 0)
    assert summary["optimizer"]["plan_hit_rate"] == full_hits / issued
    assert not session._active
    assert len(db.recycler.inflight) == 0
    assert not db.recycler.inflight.active_nodes()
    db.recycler.graph.check_invariants()
    db.recycler.cache.check_invariants()
    conn.close()
    db.close()


def test_pool_totals_are_its_sessions_totals(fine_switching):
    """Eight pool workers, one session each, run the SkyServer mix while
    a reader polls ``pool.summary()``: afterwards the pool's counters
    are its sessions' counters added together, and they count exactly
    the queries the pool returned."""
    build_catalog, streams = sky_mix()
    texts = [text for stream in streams for text in stream]
    serial = Database(RecyclerConfig(mode="spec"), catalog=build_catalog())
    reference = [table_bytes(serial.sql(text).table) for text in texts]
    serial.close()

    db = Database(RecyclerConfig(mode="spec"), catalog=build_catalog())
    with db.pool(workers=THREADS) as pool:
        reader = SummaryReader(lambda: [pool.summary()["queries"]])
        try:
            results = pool.run(texts)
        finally:
            reader.stop()
        summary = pool.summary()
    assert [table_bytes(result.table) for result in results] == reference

    per_session = [session.summary() for session in pool.sessions()]
    assert summary["per_session"] == per_session
    assert summary["sessions"] == len(per_session)
    for key in ("queries", "total_cost", "num_reused", "num_materialized",
                "stall_seconds"):
        assert summary[key] == sum(s[key] for s in per_session), key
    records = [result.record for result in results]
    assert_totals(summary, records,
                  {field: key for field, key in SESSION_TOTALS.items()
                   if key in summary})
    assert_totals(summary["recycler"], records, RECYCLER_TOTALS)
    assert len(db.recycler.inflight) == 0
    db.close()
