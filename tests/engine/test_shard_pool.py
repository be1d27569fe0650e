"""Process-sharded execution: correctness, fallback, chaos, lifecycle.

These are tier-1 tests, so they stay small: two workers over a few
thousand rows.  The 64-session replays live in
``tests/stress/test_process_mode.py``.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import Database, RecyclerConfig
from repro.columnar import types as t
from repro.columnar.table import Schema, Table
from repro.engine.shard import ShardRuntime
from repro.errors import QueryTimeout


def _make_table(num_rows: int = 4000, seed: int = 3) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        Schema(["g", "v", "name"], [t.INT64, t.FLOAT64, t.STRING]),
        {"g": rng.integers(0, 40, num_rows),
         "v": rng.random(num_rows),
         "name": np.array([f"n{i % 31}" for i in range(num_rows)],
                          dtype=object)})


#: six SkyServer statements through a 2-worker process pool, then exit
_SHUTDOWN_SCRIPT = """\
from repro import Database, RecyclerConfig
from repro.workloads.skyserver.data import build_catalog
from repro.workloads.skyserver.queries import generate_workload

if __name__ == "__main__":
    db = Database(RecyclerConfig(mode="spec"),
                  catalog=build_catalog(num_rows=4000))
    with db.pool(workers=2, mode="processes") as pool:
        results = pool.run([q.sql for q in generate_workload(6)])
    db.close()
    print(len(results))
"""

QUERIES = [
    "SELECT g, sum(v) AS sv FROM t GROUP BY g ORDER BY g",
    "SELECT g, count(*) AS c FROM t WHERE v > 0.5 GROUP BY g ORDER BY g",
    "SELECT count(*) AS c FROM t WHERE name LIKE 'n1%'",
]


@pytest.fixture(scope="module")
def shard_db():
    """One database + 2-worker runtime shared by this module (spawn
    startup is the expensive part); tests that mutate state (kill
    workers, close runtimes) build their own."""
    db = Database(RecyclerConfig(mode="spec"))
    db.register_table("t", _make_table())
    runtime = db.shard_runtime(2)
    yield db, runtime
    db.close()


@pytest.fixture()
def reference():
    db = Database(RecyclerConfig(mode="spec"))
    db.register_table("t", _make_table())
    rows = {q: db.sql(q).table.to_rows() for q in QUERIES}
    db.close()
    return rows


class TestRemoteCorrectness:
    def test_remote_results_byte_identical(self, shard_db, reference):
        db, runtime = shard_db
        session = db.connect(executor=runtime)
        before = runtime.stats["remote_queries"]
        for query in QUERIES:
            assert session.sql(query).table.to_rows() == reference[query]
        assert runtime.stats["remote_queries"] > before

    def test_warm_queries_fall_back_to_local_reuse(self, shard_db):
        db, runtime = shard_db
        session = db.connect(executor=runtime)
        query = "SELECT g, max(v) AS mv FROM t GROUP BY g ORDER BY g"
        first = session.sql(query)
        fallbacks = runtime.stats["local_fallbacks"]
        second = session.sql(query)
        # the repeat reused the recycler cache (a warm plan), which is
        # ineligible for remote execution by design
        assert second.record.num_reused > 0
        assert runtime.stats["local_fallbacks"] > fallbacks
        assert second.table.to_rows() == first.table.to_rows()

    def test_remote_populates_recycler_cache(self):
        db = Database(RecyclerConfig(mode="spec"))
        db.register_table("t", _make_table())
        runtime = db.shard_runtime(1)
        remote_session = db.connect(executor=runtime)
        plain_session = db.connect()
        query = QUERIES[0]
        remote_session.sql(query)
        # a *different, thread-mode* session reuses what the worker
        # process produced: admission stayed in the parent
        result = plain_session.sql(query)
        assert result.record.num_reused > 0
        db.close()

    def test_timeout_type_survives_remote_execution(self, shard_db):
        db, runtime = shard_db
        session = db.connect(executor=runtime)
        with pytest.raises(QueryTimeout):
            session.sql("SELECT g, sum(v) AS sv FROM t GROUP BY g",
                        timeout=0.0)


class TestFallback:
    def test_ddl_after_share_runs_locally(self, shard_db):
        db, runtime = shard_db
        db.register_table("t2", _make_table(100, seed=9))
        session = db.connect(executor=runtime)
        fallbacks = runtime.stats["local_fallbacks"]
        result = session.sql(
            "SELECT count(*) AS c FROM t2 WHERE v >= 0.0")
        assert result.table.to_rows() == [(100,)]
        assert runtime.stats["local_fallbacks"] > fallbacks

    def test_closed_runtime_falls_back(self):
        db = Database(RecyclerConfig(mode="spec"))
        db.register_table("t", _make_table(500))
        runtime = db.shard_runtime(1)
        session = db.connect(executor=runtime)
        runtime.close()
        result = session.sql(QUERIES[0])  # session stays usable
        assert result.table.num_rows > 0
        db.close()


class TestWorkerDeath:
    def test_kill_respawn_requeue(self, reference):
        db = Database(RecyclerConfig(mode="spec"))
        db.register_table("t", _make_table())
        runtime = db.shard_runtime(1)
        session = db.connect(executor=runtime)
        assert session.sql(QUERIES[0]).table.to_rows() \
            == reference[QUERIES[0]]
        for worker in list(runtime._workers):
            worker.process.kill()
            worker.process.join()
        # the next *cold* query hits the dead worker, which respawns
        # and requeues transparently
        assert session.sql(QUERIES[1]).table.to_rows() \
            == reference[QUERIES[1]]
        assert runtime.stats["worker_deaths"] >= 1
        assert runtime.stats["requeues"] >= 1
        db.close()


class TestTransport:
    def test_oversized_result_spills(self):
        db = Database(RecyclerConfig(mode="spec"))
        db.register_table("t", _make_table(3000))
        # a ring this small cannot hold a full result: spill path
        runtime = ShardRuntime(db, 1, ring_bytes=4096)
        db._shard_runtimes.append(runtime)
        session = db.connect(executor=runtime)
        result = session.sql("SELECT g, v, name FROM t WHERE v >= 0.0")
        assert result.table.num_rows == 3000
        assert runtime.stats["spills"] >= 1
        db.close()
        # spill segments were one-shot: nothing with this ring's name
        # prefix survives in /dev/shm
        assert not glob.glob("/dev/shm/*o[0-9]*x[0-9]*")


class TestLifecycle:
    def test_close_unlinks_every_segment(self):
        db = Database(RecyclerConfig(mode="spec"))
        db.register_table("t", _make_table(500))
        runtime = db.shard_runtime(2)
        session = db.connect(executor=runtime)
        session.sql(QUERIES[0])
        names = [segment.name for segment in runtime._segments]
        names += [worker.ring.name for worker in runtime._workers]
        assert names
        db.close()
        assert runtime.closed
        from repro.columnar import shm
        for name in names:
            with pytest.raises(FileNotFoundError):
                shm.attach_segment(name)
        db.close()  # idempotent

    def test_pool_process_mode_end_to_end(self):
        db = Database(RecyclerConfig(mode="spec"))
        db.register_table("t", _make_table(1500))
        with db.pool(workers=2, mode="processes") as pool:
            results = pool.run(QUERIES)
            assert all(r.table.num_rows > 0 for r in results)
            assert pool._shard_runtime.stats["remote_queries"] > 0
        assert pool._shard_runtime.closed  # pool close owns the runtime
        db.close()

    def test_clean_shutdown_is_silent(self, tmp_path):
        """A worker that exits with zero-copy views still alive over
        its table segments prints a ``BufferError`` traceback from
        ``SharedMemory.__del__`` — one per worker, on every clean
        close."""
        script = tmp_path / "process_pool_run.py"
        script.write_text(_SHUTDOWN_SCRIPT)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        before = set(glob.glob("/dev/shm/*"))
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "6"
        assert done.stderr == ""
        assert set(glob.glob("/dev/shm/*")) <= before

    def test_pool_mode_validated(self):
        db = Database(RecyclerConfig(mode="spec"))
        with pytest.raises(ValueError):
            db.pool(workers=2, mode="fibers")
        db.close()
