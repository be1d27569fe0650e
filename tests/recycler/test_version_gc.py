"""Version-dead subtree GC: drop/re-register strands graph history that
no future snapshot can match; maintenance collects it.

Incarnations (not versions) decide deadness: ``append_rows`` bumps a
table's *version* but not its *incarnation*, so update history survives
— exactly the paper's committed-update model — while ``drop_table`` /
``register_table`` (replace) / ``register_function`` (replace) orphan
the old incarnation's subtrees.
"""

from __future__ import annotations

import numpy as np

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64
from repro.recycler.graph import GraphNode

SCHEMA = Table.from_rows(["g", "v"], [INT64, FLOAT64], []).schema


def make_table(seed: int = 0, n: int = 2000) -> Table:
    rng = np.random.default_rng(seed)
    return Table(SCHEMA, {"g": rng.integers(0, 6, n),
                          "v": rng.uniform(0, 1, n)})


def make_db(**config_kwargs) -> Database:
    db = Database(RecyclerConfig(mode="spec", **config_kwargs))
    db.register_table("t", make_table())
    return db


QUERIES = [f"SELECT g, sum(v) AS s FROM t WHERE v > {i / 10:.1f} GROUP BY g"
           for i in range(4)]


class TestVersionDeadSweep:
    def test_drop_reregister_leaves_zero_dead_after_one_cycle(self):
        db = make_db()
        for sql in QUERIES:
            db.sql(sql)
        graph = db.recycler.graph
        populated = len(graph.nodes)
        assert populated > 0
        assert graph.version_dead_count() == 0

        db.drop_table("t")
        db.register_table("t", make_table(seed=1))
        # the whole old-incarnation graph is now dead ...
        assert graph.version_dead_count() == populated
        outcome = db.maintain()
        # ... and one cycle collects every node of it
        assert outcome["gc_nodes_collected"] == populated
        assert graph.version_dead_count() == 0
        assert len(graph.nodes) == 0
        graph.check_invariants()
        assert db.summary()["maintenance"]["gc_nodes_collected"] == \
            populated
        db.close()

    def test_append_keeps_history_alive(self):
        db = make_db()
        for sql in QUERIES:
            db.sql(sql)
        graph = db.recycler.graph
        populated = len(graph.nodes)
        db.append_rows("t", [(3, 0.5)])
        assert graph.version_dead_count() == 0
        outcome = db.maintain()
        assert outcome["gc_nodes_collected"] == 0
        assert len(graph.nodes) == populated
        # and the history is actually rematched: re-issuing inserts
        # nothing new
        before = len(graph.nodes)
        db.sql(QUERIES[0])
        assert len(graph.nodes) == before
        db.close()

    def test_dead_leaves_unreachable_to_matching(self):
        """After drop/re-register a repeat query must insert a fresh
        subtree (never match old-incarnation nodes), while the stale
        twins sit dead until GC."""
        db = make_db()
        result = db.sql(QUERIES[0])
        inserted_first = result.record.graph_nodes
        db.drop_table("t")
        db.register_table("t", make_table(seed=2))
        db.sql(QUERIES[0])
        graph = db.recycler.graph
        # the graph doubled: a full fresh subtree next to the dead one
        assert len(graph.nodes) == 2 * inserted_first
        assert graph.version_dead_count() == inserted_first
        db.maintain()
        assert len(graph.nodes) == inserted_first
        assert graph.version_dead_count() == 0
        graph.check_invariants()
        db.close()

    def test_function_reregister_kills_function_history(self):
        from repro.columnar import Schema
        b_schema = Schema(["x"], [INT64])
        db = make_db()
        db.register_function("f", lambda: Table(
            b_schema, {"x": np.arange(8)}), b_schema)
        db.sql("SELECT sum(x) AS s FROM f()")
        graph = db.recycler.graph
        dead_before = graph.version_dead_count()
        assert dead_before == 0
        # a clean sweep closes the GC gate; the re-register reopens it
        assert db.maintain()["gc_nodes_collected"] == 0
        assert not graph.gc_due()
        db.register_function("f", lambda: Table(
            b_schema, {"x": np.arange(3)}), b_schema)
        assert graph.version_dead_count() > 0
        assert db.maintain()["gc_nodes_collected"] > 0
        assert graph.version_dead_count() == 0
        assert db.sql("SELECT sum(x) AS s FROM f()").table.to_rows() == \
            [(3,)]
        db.close()


class TestPinningAndIsolation:
    def test_gc_never_collects_inflight_nodes(self):
        """GC's own pinning contract, isolated from the facade: the
        ``Database`` DDL path additionally aborts in-flight producers of
        stale nodes (PR 4), so deadness is created here at the catalog
        level — the incarnation bump without the sweep — leaving the
        producer registered when GC runs."""
        db = make_db()
        recycler = db.recycler
        prepared = recycler.prepare(db.plan(QUERIES[0]),
                                    producer_token="pinned")
        assert len(recycler.inflight) >= 1
        producing = recycler.inflight.active_nodes()
        db.catalog.drop_table("t")
        db.catalog.register_table("t", make_table(seed=3))
        assert recycler.graph.version_dead_count() > 0
        db.maintain()
        alive = {node.node_id for node in recycler.graph.nodes}
        assert producing <= alive, "GC collected an in-flight node"
        recycler.graph.check_invariants()
        # once the producer abandons, the next cycle finishes the sweep
        recycler.abandon(prepared)
        db.maintain()
        assert recycler.graph.version_dead_count() == 0
        db.close()

    def test_old_snapshot_query_still_matches_old_incarnation(self):
        """Snapshot isolation extends to matching: a query pinned before
        the DDL unifies with the old-incarnation subtree (and owes the
        old answer), even while new-snapshot queries get fresh nodes."""
        db = make_db()
        db.sql(QUERIES[0])
        nodes_after_first = len(db.recycler.graph.nodes)
        old_snapshot = db.catalog.snapshot()
        old_plan = db.plan(QUERIES[0], snapshot=old_snapshot)
        db.drop_table("t")
        db.register_table("t", make_table(seed=4))
        result = db.recycler.execute(old_plan, snapshot=old_snapshot)
        # the old-snapshot run matched the existing subtree: no growth
        assert len(db.recycler.graph.nodes) == nodes_after_first
        assert result.table.num_rows > 0
        db.close()

    def test_results_correct_across_generations(self):
        db = make_db()
        first = db.sql(QUERIES[1]).table.to_rows()
        assert db.sql(QUERIES[1]).table.to_rows() == first
        db.drop_table("t")
        db.register_table("t", make_table(seed=5))
        reference = Database(RecyclerConfig(mode="off"))
        reference.register_table("t", make_table(seed=5))
        expected = reference.sql(QUERIES[1]).table.to_rows()
        assert db.sql(QUERIES[1]).table.to_rows() == expected
        db.maintain()
        assert db.sql(QUERIES[1]).table.to_rows() == expected
        db.close()
        reference.close()


class TestGcGate:
    """A cycle skips the sweep while the catalog's DDL clock reads what
    it read at the last sweep that left nothing dead behind; each case
    below must still be swept once that gate is closed."""

    def test_ddl_free_cycle_checks_no_incarnation(self, monkeypatch):
        db = make_db()
        for sql in QUERIES:
            db.sql(sql)
        populated = len(db.recycler.graph.nodes)
        db.drop_table("t")
        db.register_table("t", make_table(seed=6))
        assert db.maintain()["gc_nodes_collected"] == populated
        for sql in QUERIES:
            db.sql(sql)        # live nodes a sweep would have to check
        calls = []
        checked = GraphNode.matches_incarnations
        monkeypatch.setattr(
            GraphNode, "matches_incarnations",
            lambda node, view: calls.append(node) or checked(node, view))
        for _ in range(3):
            assert db.maintain()["gc_nodes_collected"] == 0
        assert calls == []
        db.close()

    def test_materialized_dead_node_is_swept_after_its_eviction(self):
        """A dead node the cache still holds survives its sweep; the
        DDL eviction frees it later without moving the DDL clock."""
        db = make_db()
        recycler = db.recycler
        for sql in QUERIES[:1] * 2:
            db.sql(sql)
        assert len(recycler.cache) >= 1
        # deadness at the catalog level: the incarnation bump without
        # the facade's eviction sweep
        db.catalog.drop_table("t")
        db.catalog.register_table("t", make_table(seed=7))
        db.maintain()
        assert recycler.graph.version_dead_count() > 0
        clock = db.catalog.ddl_clock
        assert recycler.invalidate_table("t") >= 1
        assert db.catalog.ddl_clock == clock
        assert db.maintain()["gc_nodes_collected"] > 0
        assert recycler.graph.version_dead_count() == 0
        recycler.graph.check_invariants()
        db.close()

    def test_stale_snapshot_insert_after_a_sweep_is_swept(self):
        """A query pinned before a drop inserts old-incarnation nodes
        after the sweep that followed the drop: the insert reopens the
        gate."""
        db = make_db(speculation_min_cost=1e18)
        old_snapshot = db.catalog.snapshot()
        old_plan = db.plan(QUERIES[2], snapshot=old_snapshot)
        db.drop_table("t")
        db.register_table("t", make_table(seed=8))
        db.maintain()
        graph = db.recycler.graph
        assert not graph.gc_due()
        db.recycler.execute(old_plan, snapshot=old_snapshot)
        stale = graph.version_dead_count()
        assert stale > 0
        assert db.maintain()["gc_nodes_collected"] == stale
        assert graph.version_dead_count() == 0
        db.close()

    def test_append_reopens_the_gate_and_collects_nothing(self,
                                                          monkeypatch):
        """An append moves the DDL clock without orphaning history: the
        next cycle sweeps, finds every node live, and closes the gate
        again."""
        db = make_db()
        for sql in QUERIES:
            db.sql(sql)
        graph = db.recycler.graph
        populated = len(graph.nodes)
        db.maintain()
        assert not graph.gc_due()
        db.append_rows("t", [(3, 0.5)])
        assert graph.gc_due()
        calls = []
        checked = GraphNode.matches_incarnations
        monkeypatch.setattr(
            GraphNode, "matches_incarnations",
            lambda node, view: calls.append(node) or checked(node, view))
        assert db.maintain()["gc_nodes_collected"] == 0
        assert len(calls) == populated
        assert len(graph.nodes) == populated
        assert not graph.gc_due()
        calls.clear()
        assert db.maintain()["gc_nodes_collected"] == 0
        assert calls == []
        db.close()

    def test_pinned_dead_node_keeps_the_gate_open(self):
        """A sweep that must keep an in-flight dead node does not close
        the gate, so the cycle after the producer lets go collects it
        with no further DDL."""
        db = make_db()
        recycler = db.recycler
        graph = recycler.graph
        prepared = recycler.prepare(db.plan(QUERIES[0]),
                                    producer_token="pinned")
        producing = recycler.inflight.active_nodes()
        assert producing
        # deadness at the catalog level, as in TestPinningAndIsolation
        db.catalog.drop_table("t")
        db.catalog.register_table("t", make_table(seed=9))
        db.maintain()
        assert producing <= {node.node_id for node in graph.nodes}
        assert graph.version_dead_count() > 0
        assert graph.gc_due()
        clock = db.catalog.ddl_clock
        recycler.abandon(prepared)
        assert db.catalog.ddl_clock == clock
        assert db.maintain()["gc_nodes_collected"] > 0
        assert graph.version_dead_count() == 0
        assert not graph.gc_due()
        graph.check_invariants()
        db.close()
