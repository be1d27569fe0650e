"""The full-plan-hit shortcut in ``execute_plan`` against the path it
replaces: a lone ``CachedScan`` compiled to a ``ReuseScanOp``, opened,
pulled to exhaustion, concatenated and walked by ``collect_stats``.

The shortcut must hand back the same bytes and the same statistics —
``total_cost`` included, bit for bit — while skipping all of that, and
must stay a cancellation point.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import Database, RecyclerConfig
from repro.columnar import (BOOL, DATE, FLOAT64, INT64, STRING, Schema,
                            Table)
from repro.columnar.batch import VECTOR_SIZE
from repro.engine import (CancellationToken, MODE_MATERIALIZE,
                          StoreRequest, execute_plan)
from repro.engine.base import QueryContext
from repro.engine.compile import compile_plan
from repro.engine.executor import collect_stats
from repro.errors import QueryCancelled, QueryTimeout
from repro.plan.logical import CachedScan, Limit
from twin_replay import table_bytes

#: the cached result's columns, under recycler-graph names
CACHED = Schema(["g0", "g1", "g2", "g3", "g4"],
                [INT64, STRING, FLOAT64, DATE, BOOL])


def cached_entry(rows: int) -> SimpleNamespace:
    rng = np.random.default_rng(rows)
    words = np.empty(rows, dtype=object)
    words[:] = [("w" * (i % 7)) + str(i) for i in range(rows)]
    table = Table(CACHED, {
        "g0": np.arange(rows, dtype=np.int64),
        "g1": words,
        "g2": rng.normal(size=rows),
        "g3": rng.integers(0, 20000, rows).astype(np.int32),
        "g4": rng.integers(0, 2, rows).astype(bool)})
    table.freeze()  # as the cache publishes it
    return SimpleNamespace(table=table)


def plain(rows: int) -> CachedScan:
    return CachedScan(cached_entry(rows), CACHED)


def renamed(rows: int) -> CachedScan:
    rename = {"g0": "k", "g1": "word", "g3": "day"}
    return CachedScan(cached_entry(rows), CACHED.rename(rename),
                      rename=rename)


def subsumed(rows: int) -> CachedScan:
    """The query wants two of the five cached columns, reordered and
    renamed — what column subsumption hands the engine."""
    rename = {"g1": "word", "g3": "day"}
    return CachedScan(cached_entry(rows),
                      Schema(["day", "word"], [DATE, STRING]),
                      rename=rename)


def compiled(plan: CachedScan, vector_size: int):
    """The replaced path, spelled out."""
    ctx = QueryContext(None, vector_size=vector_size)
    root = compile_plan(plan, ctx)
    batches = []
    root.open()
    while True:
        batch = root.next()
        if batch is None:
            break
        batches.append(batch)
    root.close()
    table = Table.from_batches(plan.schema, batches)
    return table, collect_stats(root, ctx, 0.0, plan=plan), len(batches)


@pytest.mark.parametrize("vector_size", [4, VECTOR_SIZE])
@pytest.mark.parametrize("rows", [0, 1, "two vectors and three"])
@pytest.mark.parametrize("build", [plain, renamed, subsumed])
def test_shortcut_equals_the_compiled_reuse_scan(build, rows, vector_size):
    if rows == "two vectors and three":
        rows = 2 * vector_size + 3
    plan = build(rows)
    want_table, want, vectors = compiled(plan, vector_size)
    assert vectors == -(-rows // vector_size)

    got = execute_plan(plan, None, vector_size=vector_size)
    assert got.table.schema == plan.schema
    assert table_bytes(got.table) == table_bytes(want_table)
    stats = got.stats
    assert stats.physical_root is None and not stats.remote
    # bit for bit: the charge is accumulated vector by vector
    assert stats.total_cost == want.total_cost
    assert stats.reuse_cost == want.reuse_cost == stats.total_cost
    assert stats.num_reused == want.num_reused == 1
    assert stats.num_stored == want.num_stored == 0
    assert stats.store_overhead == want.store_overhead == 0.0
    assert stats.node_stats == want.node_stats
    node = stats.node_stats[0]
    assert node.rows_out == rows and node.exhausted
    assert node.bytes_out == got.table.nbytes()


def test_shortcut_result_aliases_the_entry_and_is_read_only():
    plan = renamed(10)
    result = execute_plan(plan, None)
    column = result.table.column("k")
    assert np.shares_memory(column, plan.handle.table.column("g0"))
    with pytest.raises(ValueError):
        column[0] = 99
    with pytest.raises(ValueError):
        result.table.column("word")[0] = "x"


def test_a_store_request_or_a_deeper_plan_takes_the_compiled_path():
    plan = plain(10)
    assert execute_plan(Limit(plan, limit=3), None) \
        .stats.physical_root is not None
    stored = []
    request = StoreRequest(
        mode=MODE_MATERIALIZE,
        on_complete=lambda table, stats, tag: stored.append(table))
    result = execute_plan(plan, None, stores={id(plan): request})
    assert result.stats.physical_root is not None
    assert len(stored) == 1


def test_shortcut_is_a_cancellation_point():
    token = CancellationToken()
    token.cancel()
    with pytest.raises(QueryCancelled):
        execute_plan(plain(10), None, token=token)
    with pytest.raises(QueryTimeout):
        execute_plan(plain(10), None, token=CancellationToken(timeout=0.0))
    live = CancellationToken(timeout=60.0)
    assert execute_plan(plain(10), None, token=live).table.num_rows == 10


# ----------------------------------------------------------------------
# through the recycler
# ----------------------------------------------------------------------
SQL = "SELECT g, sum(v) AS s, min(w) AS first FROM t GROUP BY g ORDER BY g"


@pytest.fixture
def db():
    rng = np.random.default_rng(3)
    rows = 3000
    words = np.empty(rows, dtype=object)
    words[:] = [f"w{i % 13}" for i in range(rows)]
    db = Database(RecyclerConfig(mode="spec",
                                 maintenance_interval_seconds=None))
    db.register_table("t", Table(
        Schema(["g", "v", "w"], [INT64, FLOAT64, STRING]),
        {"g": rng.integers(0, 9, rows), "v": rng.uniform(0, 1, rows),
         "w": words}))
    yield db
    db.close()


def test_writing_through_a_full_hit_cannot_corrupt_the_cache(db):
    cold = db.sql(SQL)
    assert cold.record.num_reused == 0
    want = table_bytes(cold.table)
    hit = db.sql(SQL)
    assert hit.record.num_reused == 1
    assert hit.stats.physical_root is None  # served by the shortcut
    assert table_bytes(hit.table) == want
    for name in hit.table.schema.names:  # the STRING column included
        column = hit.table.column(name)
        with pytest.raises(ValueError):
            column[0] = column[-1]
    again = db.sql(SQL)
    assert again.record.num_reused == 1
    assert table_bytes(again.table) == want


def test_abort_in_the_shortcut_abandons_like_the_compiled_path(
        db, monkeypatch):
    db.sql(SQL)
    token = CancellationToken()
    prepare, abandon = db.recycler.prepare, db.recycler.abandon
    abandoned = []

    def prepare_then_cancel(*args, **kwargs):
        prepared = prepare(*args, **kwargs)
        token.cancel()  # lands between the rewrite and the engine
        return prepared

    def recording_abandon(prepared):
        abandoned.append(prepared)
        abandon(prepared)

    monkeypatch.setattr(db.recycler, "prepare", prepare_then_cancel)
    monkeypatch.setattr(db.recycler, "abandon", recording_abandon)
    queries = db.summary()["queries"]
    with pytest.raises(QueryCancelled):
        db.service.execute(SQL, cancel_token=token)
    assert len(abandoned) == 1
    assert isinstance(abandoned[0].executed_plan, CachedScan)
    assert db.summary()["queries"] == queries  # never finalized
    assert len(db.recycler.inflight) == 0
    monkeypatch.undo()
    assert db.sql(SQL).record.num_reused == 1
