"""Real-threads recycler behaviour: blocking in-flight sharing, OCC
insertion conflicts, and cache consistency under concurrent invalidation.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64, Schema
from repro.errors import ConcurrencyConflict, ExecutionError
from repro.expr import Cmp, Col, Lit
from repro.plan import q
from repro.recycler import Recycler, RecyclerConfig as RC
from repro.recycler.matching import match_tree


def make_db(n=20000, seed=4, mode="spec", **config) -> Database:
    rng = np.random.default_rng(seed)
    db = Database(RecyclerConfig(mode=mode, **config))
    db.register_table("t", Table(
        Table.from_rows(["g", "v"], [INT64, FLOAT64], []).schema,
        {"g": rng.integers(0, 8, n), "v": rng.uniform(0, 1, n)}))
    return db


def agg_plan(threshold=0.5):
    return (q.scan("t", ["g", "v"])
             .filter(Cmp(">", Col("v"), Lit(threshold)))
             .aggregate(keys=["g"], aggs=[("sum", Col("v"), "s")])
             .build())


class TestBlockingInFlight:
    def test_waiter_blocks_then_reuses(self):
        """A session matching an in-flight node stalls until the
        producer's store completes, then reuses the cached entry."""
        db = Database(RecyclerConfig(mode="spec"))
        entered = threading.Event()
        gate = threading.Event()
        rows = [(i, float(i) * 0.5) for i in range(256)]

        def slow_source(tag):
            entered.set()
            assert gate.wait(timeout=10), "test gate never opened"
            return Table.from_rows(["k", "x"], [INT64, FLOAT64], rows)

        db.register_function(
            "slow_source", slow_source,
            Schema(["k", "x"], [INT64, FLOAT64]), invocation_cost=50000.0)
        sql = ("SELECT k, sum(x) AS s FROM slow_source(1)"
               " GROUP BY k ORDER BY k")

        outcome: dict[str, object] = {}

        def produce():
            with db.connect() as session:
                outcome["producer"] = session.sql(sql)
                outcome["producer_record"] = outcome["producer"].record

        def wait_and_reuse():
            entered.wait(timeout=10)
            with db.connect() as session:
                outcome["waiter"] = session.sql(sql)
                outcome["waiter_record"] = outcome["waiter"].record

        producer = threading.Thread(target=produce)
        waiter = threading.Thread(target=wait_and_reuse)
        producer.start()
        waiter.start()
        # the producer is inside the table function; the waiter must be
        # blocked on the in-flight registration, not finished.
        assert entered.wait(timeout=10)
        waiter.join(timeout=0.3)
        assert waiter.is_alive(), "waiter finished without stalling"
        gate.set()
        producer.join(timeout=10)
        waiter.join(timeout=10)
        assert not producer.is_alive() and not waiter.is_alive()

        producer_record = outcome["producer_record"]
        waiter_record = outcome["waiter_record"]
        assert producer_record.num_materialized >= 1
        assert waiter_record.stall_seconds > 0, \
            "waiter did not block on the in-flight materialization"
        assert waiter_record.num_reused >= 1, \
            "waiter did not reuse the awaited result"
        assert outcome["waiter"].table.to_rows() == \
            outcome["producer"].table.to_rows()
        assert len(db.recycler.inflight) == 0

    def test_waiter_released_when_producer_fails(self):
        """A crashed producer must not leave waiters stalled forever:
        abandon() drops its registrations."""
        db = Database(RecyclerConfig(mode="spec"))
        entered = threading.Event()

        def failing_source(tag):
            entered.set()
            raise ExecutionError("storage exploded")

        db.register_function(
            "failing_source", failing_source,
            Schema(["k", "x"], [INT64, FLOAT64]), invocation_cost=50000.0)
        sql = "SELECT k, sum(x) AS s FROM failing_source(1) GROUP BY k"

        def produce():
            with db.connect() as session:
                with pytest.raises(ExecutionError):
                    session.sql(sql)

        producer = threading.Thread(target=produce)
        producer.start()
        producer.join(timeout=10)
        assert not producer.is_alive()
        # all in-flight registrations were abandoned with the failure
        assert len(db.recycler.inflight) == 0


class TestOptimisticInsertion:
    """The Section III-B backwards-validation restart, deterministically:
    a 'concurrent' insert is injected between version read and insert."""

    def _recycler(self) -> tuple[Recycler, Database]:
        db = make_db()
        return db.recycler, db

    def test_interior_conflict_retries_and_unifies(self, monkeypatch):
        recycler, db = self._recycler()
        real_insert = recycler.graph.insert_node
        raced = {"done": False}

        def racing_insert(query_node, keys, graph_children, input_mapping,
                          assigned_mapping, query_id,
                          expected_versions=None,
                          expected_leaf_version=None, catalog=None):
            if not raced["done"] and graph_children:
                raced["done"] = True
                # a concurrent session inserts the same node first …
                real_insert(query_node, keys, graph_children, input_mapping,
                            dict(assigned_mapping), 999)
                # … so this insert's validation must now conflict.
            return real_insert(query_node, keys, graph_children,
                               input_mapping, assigned_mapping, query_id,
                               expected_versions, expected_leaf_version,
                               catalog=catalog)

        monkeypatch.setattr(recycler.graph, "insert_node", racing_insert)
        matches = match_tree(agg_plan(), recycler.graph, db.catalog,
                             query_id=1)
        assert matches.conflicts >= 1
        self._assert_no_duplicates(recycler)

    def test_leaf_conflict_retries_and_unifies(self, monkeypatch):
        recycler, db = self._recycler()
        real_insert = recycler.graph.insert_node
        raced = {"done": False}

        def racing_insert(query_node, keys, graph_children, input_mapping,
                          assigned_mapping, query_id,
                          expected_versions=None,
                          expected_leaf_version=None, catalog=None):
            if not raced["done"] and not graph_children:
                raced["done"] = True
                real_insert(query_node, keys, graph_children, input_mapping,
                            dict(assigned_mapping), 999)
            return real_insert(query_node, keys, graph_children,
                               input_mapping, assigned_mapping, query_id,
                               expected_versions, expected_leaf_version,
                               catalog=catalog)

        monkeypatch.setattr(recycler.graph, "insert_node", racing_insert)
        matches = match_tree(agg_plan(), recycler.graph, db.catalog,
                             query_id=1)
        assert matches.conflicts >= 1
        self._assert_no_duplicates(recycler)

    def test_stale_version_raises(self):
        recycler, db = self._recycler()
        recycler.execute(agg_plan(), label="seed")
        leaf = next(n for n in recycler.graph.nodes if not n.children)
        parent = next(n for n in recycler.graph.nodes
                      if n.children == [leaf])
        with pytest.raises(ConcurrencyConflict):
            recycler.graph.insert_node(
                parent.plan, (parent.params, parent.hashkey, parent.sig),
                [leaf], {}, {}, query_id=7,
                expected_versions=[leaf.version - 1])

    def test_threaded_matching_never_duplicates(self):
        """Many threads racing to insert the same fresh plans must unify
        on one graph node per operator."""
        db = make_db()
        plans = [f"SELECT g, sum(v) AS s FROM t WHERE v > 0.{d}"
                 f" GROUP BY g" for d in range(1, 8)]
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def worker():
            try:
                session = db.connect()
                barrier.wait(timeout=10)
                for sql in plans:
                    session.sql(sql)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        self._assert_no_duplicates(db.recycler)
        db.recycler.graph.check_invariants()

    @staticmethod
    def _assert_no_duplicates(recycler: Recycler) -> None:
        seen: set[tuple] = set()
        for node in recycler.graph.nodes:
            key = (node.op_name, node.params,
                   tuple(c.node_id for c in node.children))
            assert key not in seen, f"duplicate graph node {node!r}"
            seen.add(key)


class TestConcurrentInvalidation:
    def test_invalidate_during_execution_keeps_accounting(self):
        """cache.used must equal the sum of entry sizes no matter how
        invalidations interleave with admissions."""
        db = make_db(n=30000, cache_capacity=8 * 1024 * 1024)
        queries = [f"SELECT g, sum(v) AS s FROM t WHERE v > 0.{d}"
                   f" GROUP BY g" for d in range(1, 10)] * 4
        stop = threading.Event()
        errors: list[BaseException] = []

        def invalidator():
            try:
                while not stop.is_set():
                    db.invalidate_table("t")
                    cache = db.recycler.cache
                    cache.check_invariants()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        chaos = threading.Thread(target=invalidator)
        chaos.start()
        try:
            with db.pool(workers=4) as pool:
                results = pool.run(queries)
        finally:
            stop.set()
            chaos.join(timeout=10)
        assert not errors
        cache = db.recycler.cache
        cache.check_invariants()
        assert cache.used == sum(e.size for e in cache.entries())
        # results stay correct regardless of eviction interleavings
        expected = make_db(n=30000).sql(queries[0]).table.to_rows()
        assert results[0].table.to_rows() == expected


def test_config_exposes_wait_timeout():
    assert RC().inflight_wait_timeout == 30.0
    assert RC(inflight_wait_timeout=None).inflight_wait_timeout is None
