"""Tests for background maintenance (MaintenanceManager / Database).

Every cycle is the paper's one rule (Section II): one truncation of the
subtrees idle for more than ``truncate_min_idle_events`` query
events."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64
from twin_replay import recycler_state, rule_survivors


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


class TestOneRule:
    def test_every_cycle_truncates_by_event_age(self, db_factory):
        # speculation never accepts: nothing materializes, so idle
        # subtrees are actually truncatable
        db = db_factory(truncate_min_idle_events=2,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(12):
            db.sql(sql)
        graph = db.recycler.graph
        before = len(graph.nodes)
        survivors = rule_survivors(graph, 2)
        assert len(survivors) < before
        outcome = db.maintain()
        assert outcome == {"nodes_truncated": before - len(survivors)}
        assert {node.node_id for node in graph.nodes} == survivors
        graph.check_invariants()
        db.close()

    def test_nothing_idle_enough_removes_nothing(self, db_factory):
        db = db_factory()
        db.sql(distinct_queries(1)[0])
        before = len(db.recycler.graph.nodes)
        outcome = db.maintain()
        assert outcome == {"nodes_truncated": 0}
        assert len(db.recycler.graph.nodes) == before
        assert db.summary()["maintenance"]["truncate_runs"] == 0
        db.close()

    def test_materialized_and_recent_survive(self, db_factory):
        db = db_factory(truncate_min_idle_events=0)
        queries = distinct_queries(4)
        for sql in queries:
            db.sql(sql)
        cached_before = len(db.recycler.cache)
        assert cached_before > 0
        db.maintain()
        assert len(db.recycler.cache) == cached_before
        # every cached result is still matchable: re-issues reuse
        for sql in queries:
            assert db.sql(sql).record is not None
        assert db.summary()["cache"].reuses > 0
        db.recycler.graph.check_invariants()
        db.recycler.cache.check_invariants()
        db.close()

    def test_evicted_old_result_is_truncated_next_cycle(self, db_factory):
        """A materialized node outlives its idle age only while the
        cache holds it: once evicted, the next cycle removes it — the
        gate counted its old stamp."""
        db = db_factory(truncate_min_idle_events=2)
        old = distinct_queries(1)[0]
        db.sql(old)
        db.sql(old)
        graph = db.recycler.graph
        cached = [node for node in graph.nodes if node.is_materialized]
        assert cached
        db.config.speculation_min_cost = 1e18
        for sql in distinct_queries(8)[1:]:
            db.sql(sql)
        db.maintain()
        assert all(graph.is_live(node) for node in cached)
        db.flush_cache()
        assert graph.truncate_due(2)
        db.maintain()
        assert not any(graph.is_live(node) for node in cached)
        assert {node.node_id for node in graph.nodes} == \
            rule_survivors(graph, 2)
        graph.check_invariants()
        db.close()


class TestGate:
    def test_gate_skips_only_sweeps_that_remove_nothing(self, db_factory):
        db = db_factory(truncate_min_idle_events=3,
                        speculation_min_cost=1e18)
        graph = db.recycler.graph
        for sql in distinct_queries(10):
            db.sql(sql)
            for horizon in range(6):
                if not graph.truncate_due(horizon):
                    assert rule_survivors(graph, horizon) == \
                        {node.node_id for node in graph.nodes}
            db.maintain()
            assert {node.node_id for node in graph.nodes} == \
                rule_survivors(graph, 3)
        graph.check_invariants()
        db.close()

    def test_a_gated_cycle_takes_no_stripe(self, db_factory):
        db = db_factory(truncate_min_idle_events=4,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(6):
            db.sql(sql)
        db.maintain()
        recycler = db.recycler

        def no_stripes():
            raise AssertionError("a gated cycle took the stripes")
        recycler._stripes.all = no_stripes
        # no query since the sweep: its cutoff has not passed the floor
        assert db.maintain() == {"nodes_truncated": 0}
        db.close()

    def test_a_fresh_graph_has_floor_zero(self, db_factory):
        db = db_factory(truncate_min_idle_events=0)
        graph = db.recycler.graph
        assert not graph.truncate_due(0)
        graph.tick()
        assert graph.truncate_due(0)
        assert not graph.truncate_due(1)
        db.close()


class TestPureFunction:
    def test_cycle_is_a_pure_function_of_the_graph(self, db_factory):
        """A cycle reads nothing but the graph: identically built
        databases end identically, however much time passes."""
        def cycle(pause: float):
            db = db_factory(truncate_min_idle_events=1)
            queries = distinct_queries(8)
            for sql in queries[:4] + queries[:2]:
                db.sql(sql)        # materialized, reused: kept
            db.config.speculation_min_cost = 1e18
            for sql in queries[4:]:
                db.sql(sql)        # never stored: truncatable subtrees
            outcomes = []
            for _ in range(3):
                time.sleep(pause)
                outcomes.append(db.maintain())
            state = recycler_state(db)
            db.close()
            return outcomes, state

        first_outcomes, first_state = cycle(0.0)
        second_outcomes, second_state = cycle(0.05)
        assert first_outcomes == second_outcomes
        assert first_state == second_state
        assert first_outcomes[0]["nodes_truncated"] > 0
        assert first_outcomes[1:] == [{"nodes_truncated": 0}] * 2


class TestBackgroundThread:
    def test_thread_runs_and_stops_cleanly(self, db_factory):
        db = db_factory(maintenance_interval_seconds=0.05,
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


class TestStats:
    def test_summary_exposes_maintenance_stats(self, db_factory):
        db = db_factory(truncate_min_idle_events=2,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(12):
            db.sql(sql)
        outcome = db.maintain()
        stats = db.summary()["maintenance"]
        assert stats["cycles"] == 1
        assert stats["truncate_runs"] == 1
        assert stats["nodes_truncated"] == outcome["nodes_truncated"] > 0
        db.close()

    def test_summary_keys(self, db_factory):
        db = db_factory()
        db.sql(distinct_queries(1)[0])
        db.maintain()
        stats = db.summary()["maintenance"]
        assert sorted(stats) == [
            "cycles", "nodes_truncated", "stats_incremental_merges",
            "truncate_runs"]
        assert stats["stats_incremental_merges"] == 0
        db.close()


class TestShutdownCancelsTruncation:
    def test_stop_flag_aborts_truncate(self, db_factory):
        db = db_factory(truncate_min_idle_events=2,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(12):
            db.sql(sql)
        nodes_before = len(db.recycler.graph.nodes)
        # simulate shutdown arriving mid-cycle (the background loop
        # passes its stop flag): the cycle's sweeps abandon promptly,
        # graph untouched
        outcome = db.maintenance.run_once(stop=lambda: True)
        assert outcome["nodes_truncated"] == 0
        assert len(db.recycler.graph.nodes) == nodes_before
        db.close()

    def test_explicit_maintain_still_works_after_close(self, db_factory):
        # close() stops the background thread, but Database.maintain()
        # stays functional — open sessions stay usable by contract
        db = db_factory(truncate_min_idle_events=2,
                        speculation_min_cost=1e18)
        for sql in distinct_queries(12):
            db.sql(sql)
        db.close()
        assert db.maintain()["nodes_truncated"] > 0

    def test_graph_truncate_stop_callable(self, db_factory):
        db = db_factory(truncate_min_idle_events=2,
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
        db = db_factory(truncate_min_idle_events=0)
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
