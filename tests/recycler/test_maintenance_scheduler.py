"""Cost-aware maintenance: per-cycle budgets, the idle trigger on a
synthetic clock, and benefit-per-byte victim ordering.

Deterministic ``run_once``-style tests — ``now`` feeds the trigger
clock, and victim statistics are planted directly on graph nodes, so
every assertion is exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import Catalog, FLOAT64, INT64
from repro.expr import Cmp, Col, Lit
from repro.plan import q
from repro.recycler import BenefitModel, RecyclerGraph, match_tree
from twin_replay import recycler_state

N_COLS = 6


def build_catalog() -> Catalog:
    catalog = Catalog()
    names = [f"c{i}" for i in range(N_COLS)]
    catalog.register_table("t", Table(
        Table.from_rows(names, [INT64] * N_COLS, []).schema,
        {name: np.arange(4, dtype=np.int64) for name in names}))
    return catalog


def planted_graph():
    """A graph of independent leaf victims with planted statistics:
    leaf i scans column ``c{i}`` (so no structure is shared), has base
    cost ``(i + 1) * 100``, one reference, and a 100-byte result —
    benefit-per-byte strictly increasing with i."""
    catalog = build_catalog()
    graph = RecyclerGraph(catalog, alpha=1.0)  # no aging: exact benefits
    model = BenefitModel(graph)
    nodes = []
    for i in range(N_COLS):
        graph.tick()
        plan = q.scan("t", [f"c{i}"]).build()
        node = match_tree(plan, graph, catalog, i + 1).of(plan).graph_node
        graph.record_execution(node, bcost=(i + 1) * 100.0, rows=4,
                               size_bytes=100)
        graph.add_refs(node, 1.0)
        nodes.append(node)
    graph.tick()  # every node now idle beyond min_idle_events=0
    return graph, model, nodes


class TestBenefitPerByteOrdering:
    def test_lowest_benefit_victims_fall_first_and_budget_stops(self):
        graph, model, nodes = planted_graph()
        before = {n.node_id for n in nodes}
        # budget of 250 bytes pays for exactly the two cheapest victims
        removed, exhausted = graph.truncate_budgeted(
            min_idle_events=0, budget_bytes=250,
            score=model.truncation_score)
        assert removed == 2
        assert exhausted
        alive = {n.node_id for n in graph.nodes}
        # strictly the two lowest benefit-per-byte nodes are gone
        assert before - alive == {nodes[0].node_id, nodes[1].node_id}
        graph.check_invariants()

    def test_second_cycle_continues_where_budget_cut(self):
        graph, model, nodes = planted_graph()
        graph.truncate_budgeted(min_idle_events=0, budget_bytes=250,
                                score=model.truncation_score)
        removed, exhausted = graph.truncate_budgeted(
            min_idle_events=0, budget_bytes=250,
            score=model.truncation_score)
        assert removed == 2
        alive = {n.node_id for n in graph.nodes}
        assert alive == {nodes[4].node_id, nodes[5].node_id}

    def test_unlimited_budget_drains_everything(self):
        graph, model, nodes = planted_graph()
        removed, exhausted = graph.truncate_budgeted(
            min_idle_events=0, budget_bytes=None,
            score=model.truncation_score)
        assert removed == N_COLS
        assert not exhausted
        assert graph.nodes == []

    def test_structure_respected_parent_falls_before_child(self):
        """A shared child only becomes a victim once every parent was
        removed, whatever the scores say — survivors stay child-closed."""
        catalog = build_catalog()
        graph = RecyclerGraph(catalog, alpha=1.0)
        model = BenefitModel(graph)
        plans = [q.scan("t", ["c0"])
                  .filter(Cmp(">", Col("c0"), Lit(i)))
                  .build() for i in range(3)]
        roots = []
        for i, plan in enumerate(plans):
            graph.tick()
            roots.append(match_tree(plan, graph, catalog,
                                    i + 1).of(plan).graph_node)
        leaf = roots[0].children[0]
        # make the shared leaf the *cheapest* victim by far
        graph.record_execution(leaf, bcost=1.0, rows=4, size_bytes=1)
        for i, root in enumerate(roots):
            graph.record_execution(root, bcost=(i + 1) * 1000.0, rows=4,
                                   size_bytes=100)
            graph.add_refs(root, 1.0)
        graph.tick()
        # budget covers one root only: the leaf, though cheapest, must
        # survive because parents remain
        removed, exhausted = graph.truncate_budgeted(
            min_idle_events=0, budget_bytes=100,
            score=model.truncation_score)
        assert removed == 1
        assert exhausted
        alive = {n.node_id for n in graph.nodes}
        assert leaf.node_id in alive
        assert roots[0].node_id not in alive  # lowest-benefit root fell
        graph.check_invariants()

    def test_oversized_victim_skipped_not_starving(self):
        """One idle subtree bigger than the whole budget must not
        starve truncation: it is skipped (cycle marked exhausted) while
        smaller victims behind it in the heap keep draining."""
        graph, model, nodes = planted_graph()
        # make the cheapest victim enormous: lowest benefit-per-byte,
        # so the heap pops it first — and it can never fit the budget
        graph.record_execution(nodes[0], bcost=100.0, rows=4,
                               size_bytes=10_000_000)
        graph.tick()
        removed, exhausted = graph.truncate_budgeted(
            min_idle_events=0, budget_bytes=250,
            score=model.truncation_score)
        assert exhausted
        alive = {n.node_id for n in graph.nodes}
        assert nodes[0].node_id in alive          # the whale survived
        # ... but the two cheapest *fitting* victims were still taken
        assert removed == 2
        assert nodes[1].node_id not in alive
        assert nodes[2].node_id not in alive
        graph.check_invariants()

    def test_stop_hook_cuts_cycle_short(self):
        graph, model, nodes = planted_graph()
        calls = {"n": 0}

        def stop_after_two() -> bool:
            calls["n"] += 1
            return calls["n"] > 2

        removed, exhausted = graph.truncate_budgeted(
            min_idle_events=0, budget_bytes=None,
            score=model.truncation_score, stop=stop_after_two)
        assert removed < N_COLS
        assert exhausted
        graph.check_invariants()


def scheduler_db(**config_kwargs) -> Database:
    rng = np.random.default_rng(5)
    n = 4000
    db = Database(RecyclerConfig(mode="spec", **config_kwargs))
    db.register_table("t", Table(
        Table.from_rows(["g", "v"], [INT64, FLOAT64], []).schema,
        {"g": rng.integers(0, 6, n), "v": rng.uniform(0, 1, n)}))
    return db


def distinct_queries(n):
    return [f"SELECT g, sum(v) AS s FROM t WHERE v > {i / (n + 1):.6f}"
            f" GROUP BY g" for i in range(n)]


class TestBudgetedCycles:
    def test_budget_exhaustion_mid_cycle_and_carry_over(self):
        db = scheduler_db(maintenance_graph_node_limit=5,
                          maintenance_idle_seconds=None,
                          maintenance_budget_bytes=1,
                          maintenance_budget_seconds=None,
                          truncate_min_idle_events=2,
                          speculation_min_cost=1e18)
        for sql in distinct_queries(10):
            db.sql(sql)
        nodes_before = len(db.recycler.graph.nodes)
        assert nodes_before > 5
        outcome = db.maintain()
        assert outcome["size_trigger"] == 1
        assert outcome["budget_exhausted"] == 1
        # a 1-byte budget still pays for size-unknown (never-executed)
        # nodes but stops at the first measured victim
        assert len(db.recycler.graph.nodes) > 5
        assert db.summary()["maintenance"]["budget_exhausted_cycles"] == 1
        # raising the budget lets the next cycle finish the job
        db.config.maintenance_budget_bytes = None
        outcome = db.maintain()
        assert outcome["nodes_truncated"] > 0
        assert outcome["budget_exhausted"] == 0
        db.recycler.graph.check_invariants()
        db.close()

    def test_idle_trigger_follows_the_given_clock(self):
        db = scheduler_db(maintenance_graph_node_limit=None,
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
        # 5 s of silence: the idle trigger spends the budget
        outcome = db.maintenance.run_once(now=last + 5.0)
        assert outcome["idle_trigger"] == 1
        assert outcome["nodes_truncated"] > 0
        assert db.summary()["maintenance"]["idle_triggers"] == 1
        db.recycler.graph.check_invariants()
        db.close()

    def test_cycle_is_a_pure_function_of_graph_and_clock(self):
        """With no time budget a cycle reads nothing but the graph and
        ``now``: identically built databases end identically."""
        def cycle():
            db = scheduler_db(maintenance_graph_node_limit=8,
                              maintenance_idle_seconds=5.0,
                              maintenance_budget_bytes=4096,
                              maintenance_budget_seconds=None,
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

    def test_summary_gains_scheduler_counters(self):
        db = scheduler_db(maintenance_idle_seconds=None,
                          maintenance_graph_node_limit=None)
        db.sql(distinct_queries(1)[0])
        db.maintain()
        stats = db.summary()["maintenance"]
        for key in ("gc_nodes_collected", "stats_incremental_merges",
                    "budget_exhausted_cycles"):
            assert key in stats
            assert stats[key] == 0
        db.close()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RecyclerConfig(maintenance_budget_seconds=0.0)
        with pytest.raises(ValueError):
            RecyclerConfig(maintenance_budget_bytes=-1)
