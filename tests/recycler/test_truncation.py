"""Tests for recycler-graph truncation (paper Section II)."""

from __future__ import annotations

import pytest

from repro.errors import RecyclerError
from repro.expr import Cmp, Col, Lit
from repro.plan import q
from repro.recycler import Recycler, RecyclerConfig, RecyclerGraph, \
    match_tree


def select_plan(threshold):
    return (q.scan("sales", ["sale_id", "quantity"])
             .filter(Cmp(">", Col("quantity"), Lit(threshold)))
             .build())


class TestTruncation:
    def test_idle_subtrees_removed(self, sales_catalog):
        graph = RecyclerGraph(sales_catalog)
        for i in range(10):
            graph.tick()
            match_tree(select_plan(i), graph, sales_catalog,
                       query_id=i + 1)
        before = len(graph.nodes)
        # make five more events pass, touching only one plan
        for _ in range(5):
            graph.tick()
            match_tree(select_plan(0), graph, sales_catalog,
                       query_id=99)
        removed = graph.truncate(min_idle_events=4)
        assert removed > 0
        assert len(graph.nodes) < before
        graph.check_invariants()

    def test_recently_accessed_kept(self, sales_catalog):
        graph = RecyclerGraph(sales_catalog)
        graph.tick()
        result = match_tree(select_plan(1), graph, sales_catalog,
                            query_id=1)
        assert graph.truncate(min_idle_events=100) == 0
        assert len(graph.nodes) == 2

    def test_materialized_nodes_survive(self, sales_catalog):
        recycler = Recycler(sales_catalog, RecyclerConfig(
            mode="spec", speculation_min_cost=0.0))
        recycler.execute(select_plan(1))
        assert len(recycler.cache) >= 1
        for _ in range(50):
            recycler.graph.tick()
        removed = recycler.graph.truncate(min_idle_events=10)
        materialized = [n for n in recycler.graph.nodes
                        if n.is_materialized]
        assert materialized  # cached results are never truncated away
        recycler.graph.check_invariants()

    def test_kept_subtree_stays_matchable(self, sales_catalog):
        graph = RecyclerGraph(sales_catalog)
        for i in range(6):
            graph.tick()
            match_tree(select_plan(i), graph, sales_catalog,
                       query_id=i + 1)
        for _ in range(10):
            graph.tick()
            match_tree(select_plan(0), graph, sales_catalog,
                       query_id=50)
        graph.truncate(min_idle_events=5)
        graph.tick()
        # the surviving plan still matches exactly (no re-insertion)
        result = match_tree(select_plan(0), graph, sales_catalog,
                            query_id=51)
        assert result.inserted_count == 0
        # a truncated plan re-inserts cleanly
        result = match_tree(select_plan(3), graph, sales_catalog,
                            query_id=52)
        assert result.inserted_count == 1
        graph.check_invariants()

    def test_invariant_rejects_a_removed_child_of_a_survivor(
            self, sales_catalog):
        graph = RecyclerGraph(sales_catalog)
        graph.tick()
        plan = select_plan(1)
        root = match_tree(plan, graph, sales_catalog,
                          query_id=1).of(plan).graph_node
        graph.check_invariants()
        # a sweep that ignored child-closure: the leaf goes, its
        # parent stays
        with graph._lock:
            graph._remove_nodes([root.children[0]])
        with pytest.raises(RecyclerError, match="removed child"):
            graph.check_invariants()
