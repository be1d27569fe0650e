"""Twin replay: the warm statement path against the path it shortcuts.

:class:`Twins` feeds one op stream to two identically built databases.
``fast`` takes SQL text through ``Database.sql`` — statement cache,
then the recycler's root-hit fast path.  ``slow`` hands
``Database.execute`` a plan bound afresh for every call, which is never
cached and always runs the full optimize / match / reference / rewrite /
store-planning pipeline.  Every statement must return byte-identical
rows and an identical query record, and at any point the two recyclers
must be in the same state — counters, per-node statistics, cache
content and its replacement order — which is what makes the fast path
invisible to the paper's benefit-based policies.

Shared by ``tests/recycler/test_root_hit.py`` and the hypothesis
property in ``tests/property/`` (``tests/`` is on ``sys.path`` through
the root ``conftest.py``).  :class:`TemplateTwins` puts the plan-once
statement template against its memo-less twin
(``tests/recycler/test_template_plans.py``).  :func:`replay` is the one-database form:
``tests/engine/test_string_kernel_routes.py`` replays a stream under the
engine's STRING kernels and under their naive references and compares.
:class:`WireTwins` is the wire case: ``fast`` sits behind a server —
which answers warm statements on its event loop — and ``slow`` takes
the same texts through ``Database.sql``
(``tests/server/test_inline_warm.py``).  :func:`tpch_stream` and
:func:`dashboard_stream` are the two op streams the route-equivalence
tests replay (``tests/engine/test_*_kernel_routes.py``,
``tests/recycler/test_prepare_routes.py``), :func:`replay_fresh` one
replay of them on a database of its own.  :func:`rule_survivors` is the
truncation rule stated directly, which the maintenance tests hold the
graph's sweep to.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import Database, RecyclerConfig
from repro.server.base import query_stats_payload
from repro.sql import sql_to_plan
from repro.workloads import timeseries, tpch

RECORD_FIELDS = ("num_reused", "num_matched", "num_inserted",
                 "num_materialized", "num_stores_injected", "total_cost",
                 "graph_nodes")


def quiet_config(cache_bytes: int, mode: str = "spec") -> RecyclerConfig:
    """``mode`` (``spec`` by default) with no maintenance thread, so two
    replays of one stream do identical work."""
    return RecyclerConfig(
        mode=mode, cache_capacity=cache_bytes,
        maintenance_interval_seconds=None)


def table_bytes(table) -> list:
    """Column names, types and raw column bytes of a result."""
    out = []
    for name, dtype in zip(table.schema.names, table.schema.types):
        column = table.column(name)
        payload = column.tolist() if column.dtype == object \
            else np.ascontiguousarray(column).tobytes()
        out.append((name, dtype.name, payload))
    return out


def rule_survivors(graph, min_idle_events: int,
                   pinned=frozenset()) -> set[int]:
    """Ids of the nodes the truncation rule keeps, computed from the
    rule's statement rather than the graph's sweep: the child-closure of
    the materialized, pinned and recently accessed nodes."""
    cutoff = graph.event - min_idle_events
    stack = [node for node in graph.nodes
             if node.is_materialized or node.node_id in pinned or
             node.last_access_event >= cutoff]
    keep: set[int] = set()
    while stack:
        node = stack.pop()
        if node.node_id not in keep:
            keep.add(node.node_id)
            stack.extend(node.children)
    return keep


def recycler_state(db: Database) -> dict:
    """Everything the replacement and truncation policies read."""
    recycler = db.recycler
    return {
        "counters": recycler.cache.counters,
        "event": recycler.graph.event,
        "nodes": {n.node_id: (n.refs_raw, n.age_event,
                              n.last_access_event, n.exec_count,
                              n.bcost, n.rows, n.size_bytes,
                              n.is_materialized)
                  for n in recycler.graph.nodes},
        # entries() walks the size groups, each in benefit order
        "entries": [(e.node.node_id, e.benefit, e.reuse_count,
                     e.last_used_event, e.size)
                    for e in recycler.cache.entries()],
        "used": recycler.cache.used,
    }


def replay(db: Database, ops) -> tuple[list, dict]:
    """Run ``ops`` — SQL texts, or callables taking the database — on
    one database; returns what every statement produced (result bytes
    and query-record fields) and the recycler's final state, for
    comparison with a replay under different conditions."""
    produced = []
    for op in ops:
        if callable(op):
            op(db)
            continue
        result = db.sql(op)
        produced.append((table_bytes(result.table),
                         tuple(getattr(result.record, name)
                               for name in RECORD_FIELDS)))
    return produced, recycler_state(db)


def tpch_stream(mode: str = "spec"):
    """Two TPC-H qgen streams, each issued twice, a maintenance cycle
    half way, against a cache that fills: ``(build, ops)``."""
    streams = tpch.generate_streams(2, 0.004, seed=5)
    ops = [query.sql for stream in streams for query in list(stream) * 2]
    ops.insert(len(ops) // 2, lambda db: db.maintain())
    return (lambda: Database(quiet_config(512 * 1024, mode),
                             catalog=tpch.build_catalog(0.004, seed=3)),
            ops)


def dashboard_stream(mode: str = "spec"):
    """The time-series dashboard over three appends: ``(build, ops)``."""
    initial, batch = 3000, 120
    ops, rows = [], initial
    for cycle in range(3):
        ops.append(lambda db, cycle=cycle, rows=rows: db.append_rows(
            "metrics", timeseries._batch(rows, batch, 7 + cycle)))
        rows += batch
        ops.extend([timeseries.range_scan(rows - batch, rows),
                    timeseries.sensor_rollup(),
                    timeseries.site_rollup(rows),
                    timeseries.alerts(rows),
                    timeseries.alerts(10 ** 6, limit=40),
                    timeseries.hot_sensors(rows),
                    timeseries.site_rollup(initial)] * 2)
    return (lambda: Database(quiet_config(64 * 1024 * 1024, mode),
                             catalog=timeseries.build_catalog(
                                 initial, seed=7)),
            ops)


def replay_fresh(build: Callable[[], Database], ops) -> tuple[list, dict]:
    """:func:`replay` on a database ``build`` makes, closed after; the
    state also holds the bytes of every cached table."""
    db = build()
    try:
        produced, state = replay(db, ops)
        state["tables"] = {entry.node.node_id: table_bytes(entry.table)
                           for entry in db.recycler.cache.entries()}
        return produced, state
    finally:
        db.close()


class Twins:
    def __init__(self, build: Callable[[], Database]) -> None:
        self.fast = build()
        self.slow = build()
        self.statements = 0

    def sql(self, text: str):
        """Run ``text`` on both; assert equal rows and query records."""
        fast = self.fast.sql(text)
        slow = self.slow_sql(text)
        self.statements += 1
        assert table_bytes(fast.table) == table_bytes(slow.table), text
        for name in RECORD_FIELDS:
            assert getattr(fast.record, name) == \
                getattr(slow.record, name), (name, text)
        return fast

    def slow_sql(self, text: str):
        return self.slow.execute(
            sql_to_plan(text, self.slow.catalog.snapshot()))

    def apply(self, op: Callable[[Database], object]) -> None:
        """A non-query op (append, DDL, maintain, flush) on both."""
        op(self.fast)
        op(self.slow)

    def assert_same_state(self) -> None:
        fast, slow = recycler_state(self.fast), recycler_state(self.slow)
        for key in fast:
            assert fast[key] == slow[key], key
        self.fast.recycler.cache.check_invariants()

    def root_hits(self) -> tuple[int, int]:
        return (self.fast.summary()["optimizer"]["root_hits"],
                self.slow.summary()["optimizer"]["root_hits"])

    def close(self) -> None:
        self.fast.close()
        self.slow.close()


def plan_every_text(db: Database) -> None:
    """Make ``db``'s statement templates keep no plan: every text is
    then bound from its template but validated, optimized and matched
    in full, with no memo — how the statement cache planned before
    templates kept plans."""
    optimize = db.recycler.optimize

    def every_text(plan, snapshot, ctx=None):
        planned = optimize(plan, snapshot, ctx)
        if ctx is not None:
            ctx.value_dependent = True
        return planned

    db.recycler.optimize = every_text


class TemplateTwins(Twins):
    """``fast`` plans each statement template once and matches the
    template's literal-free subtrees from its memo; ``slow`` is its
    memo-less twin (:func:`plan_every_text`).  Both take the text
    through ``Database.sql`` — one statement cache, one order of root
    hits — so besides rows, records and recycler state, the optimizer's
    counters must agree: the rewrites a template hit counts are the
    ones a fresh optimize of its text performs."""

    def __init__(self, build: Callable[[], Database]) -> None:
        super().__init__(build)
        plan_every_text(self.slow)

    def slow_sql(self, text: str):
        return self.slow.sql(text)

    def assert_same_state(self) -> None:
        super().assert_same_state()
        fast, slow = (db.summary()["optimizer"]
                      for db in (self.fast, self.slow))
        for key in ("rewrites", "nodes_matched", "nodes_inserted",
                    "root_hits"):
            assert fast[key] == slow[key], key


def wire_rows(table) -> list[tuple]:
    """A result's rows as a wire client decodes them: tuples of plain
    Python values."""
    return list(zip(*[table.column(name).tolist()
                      for name in table.schema.names]))


def statement_cache(db: Database) -> dict:
    return db.summary()["service"]["statement_cache"]


class WireTwins(Twins):
    """A served database against an in-process one.

    ``query`` is a client's ``query`` method (``ServerClient``,
    ``HttpClient``, or anything returning ``rows`` and the reply
    header's ``stats``) connected to a server over ``fast``; ``slow``
    runs each text through ``Database.sql``.  One client, so both
    databases see one statement at a time in one order, and everything
    the recycler and the statement cache count must come out equal —
    query ids included."""

    def __init__(self, build: Callable[[], Database]) -> None:
        super().__init__(build)
        self.query = None
        #: the record of the last query ``fast`` finalized: the server
        #: sends only part of it
        self.fast_record = None
        finalize = self.fast.recycler.finalize

        def keep_record(*args, **kwargs):
            self.fast_record = finalize(*args, **kwargs)
            return self.fast_record

        self.fast.recycler.finalize = keep_record

    def sql(self, text: str):
        served = self.query(text)
        local = self.slow.sql(text)
        self.statements += 1
        assert served.rows == wire_rows(local.table), text
        assert served.stats == query_stats_payload(local.record), text
        record = self.fast_record
        for name in ("query_id",) + RECORD_FIELDS:
            assert getattr(record, name) == \
                getattr(local.record, name), (name, text)
        return served

    def assert_same_state(self) -> None:
        super().assert_same_state()
        # a warm attempt that fell through to the pool is one hit
        assert statement_cache(self.fast) == statement_cache(self.slow)
