"""Tests for background maintenance (MaintenanceManager / Database)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64
from twin_replay import recycler_state


@pytest.fixture
def db_factory():
    def make(**config_kwargs) -> Database:
        rng = np.random.default_rng(3)
        n = 5000
        db = Database(RecyclerConfig(mode="spec", **config_kwargs))
        db.register_table("t", Table(
            Table.from_rows(["g", "v"], [INT64, FLOAT64], []).schema,
            {"g": rng.integers(0, 6, n), "v": rng.uniform(0, 1, n)}))
        return db
    return make


def distinct_queries(n):
    return [f"SELECT g, sum(v) AS s FROM t WHERE v > {i / (n + 1):.6f}"
            f" GROUP BY g" for i in range(n)]


class TestTriggers:
    def test_size_trigger_truncates(self, db_factory):
        # speculation never accepts: nothing materializes, so idle
        # subtrees are actually truncatable
        db = db_factory(maintenance_graph_node_limit=10,
                        maintenance_idle_seconds=None,
                        truncate_min_idle_events=2,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(12):
            db.sql(sql)
        assert len(db.recycler.graph.nodes) > 10
        outcome = db.maintain()
        assert outcome["size_trigger"] == 1
        assert outcome["nodes_truncated"] > 0
        db.recycler.graph.check_invariants()
        db.close()

    def test_size_trigger_alone_refreshes_no_benefit(self, db_factory):
        """Only the idle trigger refreshes cached benefits; the size
        trigger runs one truncation and leaves the cache's benefits as
        they were."""
        db = db_factory(maintenance_graph_node_limit=1,
                        maintenance_idle_seconds=None,
                        truncate_min_idle_events=0)
        for sql in distinct_queries(6) * 2:
            db.sql(sql)
        assert len(db.recycler.cache) > 0
        outcome = db.maintain()
        assert outcome["size_trigger"] == 1
        assert outcome["idle_trigger"] == 0
        assert outcome["benefits_refreshed"] == 0
        maintenance = db.summary()["maintenance"]
        assert maintenance["benefits_refreshed"] == 0
        assert maintenance["truncate_runs"] == int(
            outcome["nodes_truncated"] > 0)
        db.recycler.graph.check_invariants()
        db.close()

    def test_size_trigger_idle_below_limit(self, db_factory):
        db = db_factory(maintenance_graph_node_limit=10_000,
                        maintenance_idle_seconds=None)
        db.sql(distinct_queries(1)[0])
        outcome = db.maintain()
        assert outcome["size_trigger"] == 0
        assert outcome["nodes_truncated"] == 0
        db.close()

    def test_idle_trigger_truncates_and_refreshes(self, db_factory):
        db = db_factory(maintenance_idle_seconds=0.0,
                        maintenance_graph_node_limit=None,
                        truncate_min_idle_events=0)
        for sql in distinct_queries(6):
            db.sql(sql)
        cached_before = len(db.recycler.cache)
        outcome = db.maintain()
        assert outcome["idle_trigger"] == 1
        # cached results are pinned; their benefits were recomputed
        assert len(db.recycler.cache) == cached_before
        assert outcome["benefits_refreshed"] == cached_before
        db.recycler.graph.check_invariants()
        db.recycler.cache.check_invariants()
        db.close()

    def test_materialized_and_recent_survive(self, db_factory):
        db = db_factory(maintenance_idle_seconds=0.0,
                        maintenance_graph_node_limit=None,
                        truncate_min_idle_events=0)
        queries = distinct_queries(4)
        for sql in queries:
            db.sql(sql)
        db.maintain()
        # every cached result is still matchable: re-issues reuse
        for sql in queries:
            record = db.sql(sql).record
            assert record is not None
        summary = db.summary()
        assert summary["cache"].reuses > 0
        db.close()


class TestTriggerClock:
    def test_idle_trigger_follows_the_given_clock(self, db_factory):
        db = db_factory(maintenance_graph_node_limit=None,
                        maintenance_idle_seconds=5.0,
                        truncate_min_idle_events=0,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(6):
            db.sql(sql)
        last = db.recycler.last_activity
        # 2 s after the last query: not idle yet
        outcome = db.maintenance.run_once(now=last + 2.0)
        assert outcome["idle_trigger"] == 0
        assert outcome["nodes_truncated"] == 0
        # 5 s of silence: the idle trigger truncates
        outcome = db.maintenance.run_once(now=last + 5.0)
        assert outcome["idle_trigger"] == 1
        assert outcome["nodes_truncated"] > 0
        assert db.summary()["maintenance"]["idle_triggers"] == 1
        db.recycler.graph.check_invariants()
        db.close()

    def test_cycle_is_a_pure_function_of_graph_and_clock(self, db_factory):
        """A cycle reads nothing but the graph and ``now``: identically
        built databases end identically."""
        def cycle():
            db = db_factory(maintenance_graph_node_limit=8,
                            maintenance_idle_seconds=5.0,
                            truncate_min_idle_events=1)
            queries = distinct_queries(8)
            for sql in queries[:4] + queries[:2]:
                db.sql(sql)        # materialized, reused: pinned entries
            db.config.speculation_min_cost = 1e18
            for sql in queries[4:]:
                db.sql(sql)        # never stored: truncatable subtrees
            last = db.recycler.last_activity
            outcomes = [db.maintenance.run_once(now=last + gap)
                        for gap in (1.0, 6.0, 7.0)]
            state = recycler_state(db)
            db.close()
            return outcomes, state

        first_outcomes, first_state = cycle()
        second_outcomes, second_state = cycle()
        assert first_outcomes == second_outcomes
        assert first_state == second_state
        assert first_outcomes[0]["size_trigger"] == 1
        assert first_outcomes[1]["idle_trigger"] == 1
        assert sum(o["nodes_truncated"] for o in first_outcomes) > 0
        assert first_outcomes[1]["benefits_refreshed"] > 0


class TestBackgroundThread:
    def test_thread_runs_and_stops_cleanly(self, db_factory):
        db = db_factory(maintenance_interval_seconds=0.05,
                        maintenance_idle_seconds=0.0,
                        maintenance_graph_node_limit=None,
                        truncate_min_idle_events=0)
        assert db.maintenance.running
        for sql in distinct_queries(5):
            db.sql(sql)
        deadline = time.monotonic() + 5.0
        while db.maintenance.stats.cycles == 0 and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert db.maintenance.stats.cycles > 0
        db.close()
        assert not db.maintenance.running
        db.close()  # idempotent

    def test_disabled_by_default(self, db_factory):
        db = db_factory()
        assert not db.maintenance.running
        db.close()

    def test_database_context_manager(self, db_factory):
        with db_factory(maintenance_interval_seconds=0.05) as db:
            assert db.maintenance.running
        assert db.closed
        assert not db.maintenance.running

    def test_wake_forces_cycle(self, db_factory):
        db = db_factory(maintenance_interval_seconds=30.0,
                        maintenance_idle_seconds=None,
                        maintenance_graph_node_limit=None)
        assert db.maintenance.running
        before = db.maintenance.stats.cycles
        db.maintenance.wake()
        deadline = time.monotonic() + 5.0
        while db.maintenance.stats.cycles == before and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert db.maintenance.stats.cycles > before
        db.close()


class TestStats:
    def test_summary_exposes_maintenance_stats(self, db_factory):
        db = db_factory(maintenance_graph_node_limit=10,
                        maintenance_idle_seconds=None,
                        truncate_min_idle_events=2,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(12):
            db.sql(sql)
        db.maintain()
        stats = db.summary()["maintenance"]
        assert stats["cycles"] >= 1
        assert stats["size_triggers"] >= 1
        assert stats["truncate_runs"] >= 1
        assert stats["nodes_truncated"] > 0
        db.close()

    def test_summary_keys(self, db_factory):
        db = db_factory(maintenance_idle_seconds=None,
                        maintenance_graph_node_limit=None)
        db.sql(distinct_queries(1)[0])
        db.maintain()
        stats = db.summary()["maintenance"]
        assert sorted(stats) == [
            "benefits_refreshed", "cycles", "gc_nodes_collected",
            "idle_triggers", "nodes_truncated", "size_triggers",
            "stats_incremental_merges", "truncate_runs"]
        for key in ("gc_nodes_collected", "stats_incremental_merges"):
            assert stats[key] == 0
        db.close()

    def test_idle_cycle_counts_refreshes(self, db_factory):
        db = db_factory(maintenance_idle_seconds=0.0,
                        maintenance_graph_node_limit=None)
        db.sql(distinct_queries(1)[0])
        db.maintain()
        stats = db.summary()["maintenance"]
        assert stats["idle_triggers"] >= 1
        assert stats["benefits_refreshed"] >= 0
        db.close()

    def test_no_trigger_counts_no_truncate_run(self, db_factory):
        db = db_factory(maintenance_graph_node_limit=10_000,
                        maintenance_idle_seconds=None)
        db.sql(distinct_queries(1)[0])
        db.maintain()
        stats = db.summary()["maintenance"]
        assert stats["cycles"] == 1
        assert stats["truncate_runs"] == 0
        db.close()


class TestShutdownCancelsTruncation:
    def test_stop_flag_aborts_truncate(self, db_factory):
        db = db_factory(maintenance_graph_node_limit=10,
                        maintenance_idle_seconds=None,
                        truncate_min_idle_events=2,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(12):
            db.sql(sql)
        nodes_before = len(db.recycler.graph.nodes)
        assert nodes_before > 10
        # simulate shutdown arriving mid-cycle (the background loop
        # passes its stop flag): the cycle's truncations abandon
        # promptly, graph untouched
        outcome = db.maintenance.run_once(stop=lambda: True)
        assert outcome["nodes_truncated"] == 0
        assert len(db.recycler.graph.nodes) == nodes_before
        db.close()

    def test_explicit_maintain_still_works_after_close(self, db_factory):
        # close() stops the background thread, but Database.maintain()
        # stays functional — open sessions stay usable by contract
        db = db_factory(maintenance_graph_node_limit=10,
                        maintenance_idle_seconds=None,
                        truncate_min_idle_events=2,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(12):
            db.sql(sql)
        db.close()
        outcome = db.maintain()
        assert outcome["size_trigger"] == 1
        assert outcome["nodes_truncated"] > 0

    def test_graph_truncate_stop_callable(self, db_factory):
        db = db_factory(maintenance_graph_node_limit=10,
                        maintenance_idle_seconds=None,
                        truncate_min_idle_events=2,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(12):
            db.sql(sql)
        graph = db.recycler.graph
        before = len(graph.nodes)
        assert graph.truncate(min_idle_events=0, stop=lambda: True) == 0
        assert len(graph.nodes) == before
        # the same truncation goes through once stop stays clear
        removed = graph.truncate(min_idle_events=0, stop=lambda: False)
        assert removed > 0
        graph.check_invariants()
        db.close()


class TestPinning:
    def test_inflight_nodes_survive_truncation(self, db_factory):
        db = db_factory(maintenance_idle_seconds=0.0,
                        maintenance_graph_node_limit=None,
                        truncate_min_idle_events=0)
        recycler = db.recycler
        plan = db.plan(distinct_queries(1)[0])
        prepared = recycler.prepare(plan, producer_token="pinned")
        assert len(recycler.inflight) >= 1
        producing = recycler.inflight.active_nodes()
        # age the graph hard, then maintain: in-flight nodes must stay
        for _ in range(20):
            recycler.graph.tick()
        db.maintain()
        alive = {node.node_id for node in recycler.graph.nodes}
        assert producing <= alive
        recycler.abandon(prepared)
        db.close()
