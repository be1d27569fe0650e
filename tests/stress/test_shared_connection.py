"""Eight threads share one DB-API connection.

PEP 249 ``threadsafety == 2`` lets threads share a connection (each
with its own cursor), and the connection issues every query through its
one :class:`~repro.session.Session` — so a session must run queries
from several threads at once.  Under a tiny GIL switch interval, eight
threads run the SkyServer or the TPC-H statement mix on one connection;
every result must be byte-identical to a serial run, every query must
get its own producer token, every cursor must count what it issued, and
nothing may stay registered in flight afterwards.
"""

from __future__ import annotations

import sys
import threading

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
    conn = dbapi.connect(database=db)
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
    assert not errors, errors
    assert produced == reference

    issued = sum(len(stream) for stream in streams)
    assert len(tokens) == issued
    assert len(set(tokens)) == issued
    assert sum(cur.statistics["queries"] for cur in cursors) == issued
    assert len(conn._session.records) == issued
    assert not conn._session._active
    assert len(db.recycler.inflight) == 0
    assert not db.recycler.inflight.active_nodes()
    db.recycler.graph.check_invariants()
    db.recycler.cache.check_invariants()
    conn.close()
    db.close()
