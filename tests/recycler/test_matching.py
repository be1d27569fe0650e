"""Tests for Algorithm-1 matching, insertion, and name mappings."""

from __future__ import annotations

import pytest

from repro.errors import ConcurrencyConflict
from repro.expr import Arith, Cmp, Col, Lit
from repro.plan import q
from repro.recycler import RecyclerGraph, match_tree
from repro.recycler.graph import node_keys


@pytest.fixture
def graph(sales_catalog):
    return RecyclerGraph(sales_catalog)


def simple_plan(alias="total"):
    return (q.scan("sales", ["product", "quantity"])
             .filter(Cmp(">", Col("quantity"), Lit(2)))
             .aggregate(keys=["product"],
                        aggs=[("sum", Col("quantity"), alias)])
             .build())


class TestExactMatching:
    def test_first_query_inserts_every_node(self, graph, sales_catalog):
        plan = simple_plan()
        result = match_tree(plan, graph, sales_catalog, query_id=1)
        assert result.inserted_count == 3
        assert result.matched_count == 0
        assert len(graph.nodes) == 3
        graph.check_invariants()

    def test_identical_query_fully_matches(self, graph, sales_catalog):
        match_tree(simple_plan(), graph, sales_catalog, query_id=1)
        result = match_tree(simple_plan(), graph, sales_catalog, query_id=2)
        assert result.inserted_count == 0
        assert result.matched_count == 3
        assert len(graph.nodes) == 3

    def test_shared_prefix_is_unified(self, graph, sales_catalog):
        match_tree(simple_plan(), graph, sales_catalog, query_id=1)
        other = (q.scan("sales", ["product", "quantity"])
                  .filter(Cmp(">", Col("quantity"), Lit(2)))
                  .aggregate(keys=["product"],
                             aggs=[("max", Col("quantity"), "mx")])
                  .build())
        result = match_tree(other, graph, sales_catalog, query_id=2)
        # scan + select shared; only the aggregate is new
        assert result.matched_count == 2
        assert result.inserted_count == 1
        assert len(graph.nodes) == 4

    def test_different_predicate_differs(self, graph, sales_catalog):
        match_tree(simple_plan(), graph, sales_catalog, query_id=1)
        other = (q.scan("sales", ["product", "quantity"])
                  .filter(Cmp(">", Col("quantity"), Lit(5)))
                  .build())
        result = match_tree(other, graph, sales_catalog, query_id=2)
        assert result.matched_count == 1  # only the scan
        assert result.inserted_count == 1

    def test_scan_column_sets_distinguish(self, graph, sales_catalog):
        match_tree(q.scan("sales", ["product"]).build(), graph,
                   sales_catalog, query_id=1)
        result = match_tree(q.scan("sales", ["quantity"]).build(), graph,
                            sales_catalog, query_id=2)
        assert result.inserted_count == 1

    def test_scan_column_order_is_significant(self, graph, sales_catalog):
        # Interior name mappings pair outputs positionally, so the scan
        # leaf must key the *ordered* column tuple — an unordered key let
        # pass-through chains above reordered scans swap names.  Sharing
        # across spellings is the plan optimizer's job (it canonicalizes
        # scan order before matching), never the matcher's.
        match_tree(q.scan("sales", ["product", "quantity"]).build(), graph,
                   sales_catalog, query_id=1)
        result = match_tree(q.scan("sales", ["quantity", "product"]).build(),
                            graph, sales_catalog, query_id=2)
        assert result.inserted_count == 1


class TestNameMappings:
    def test_alias_differences_still_match(self, graph, sales_catalog):
        match_tree(simple_plan("total"), graph, sales_catalog, query_id=1)
        result = match_tree(simple_plan("sum_qty"), graph, sales_catalog,
                            query_id=2)
        assert result.inserted_count == 0
        plan = simple_plan("sum_qty")
        result = match_tree(plan, graph, sales_catalog, query_id=3)
        match = result.of(plan)
        # The query's alias maps to the graph's unique name (@q1 suffix).
        assert match.mapping["sum_qty"] == "total@q1"

    def test_mapping_propagates_through_parents(self, graph, sales_catalog):
        def plan(alias):
            return (q.scan("sales", ["quantity", "price"])
                     .project([(alias, Arith("*", Col("quantity"),
                                             Col("price")))])
                     .filter(Cmp(">", Col(alias), Lit(5.0)))
                     .build())
        match_tree(plan("revenue"), graph, sales_catalog, query_id=1)
        result = match_tree(plan("rev2"), graph, sales_catalog, query_id=2)
        # The select's predicate references the aliased column; matching
        # must unify it through the name mapping.
        assert result.inserted_count == 0
        assert result.matched_count == 3

    def test_graph_names_are_query_unique(self, graph, sales_catalog):
        plan_a = (q.scan("sales", ["quantity"])
                   .project([("x", Arith("+", Col("quantity"), Lit(1)))])
                   .build())
        plan_b = (q.scan("sales", ["quantity"])
                   .project([("x", Arith("+", Col("quantity"), Lit(2)))])
                   .build())
        match_tree(plan_a, graph, sales_catalog, query_id=1)
        match_tree(plan_b, graph, sales_catalog, query_id=2)
        names = {n.plan.outputs[0][0] for n in graph.nodes
                 if n.op_name == "project"}
        assert names == {"x@q1", "x@q2"}


class TestJoinsAndMultiChildren:
    def join_plan(self):
        stores = (q.scan("stores", ["store_id", "city"])
                   .project([("s_id", Col("store_id")), "city"]))
        return (q.scan("sales", ["sale_id", "store_id"])
                 .join(stores, on=[("store_id", "s_id")])
                 .build())

    def test_join_matches(self, graph, sales_catalog):
        match_tree(self.join_plan(), graph, sales_catalog, query_id=1)
        result = match_tree(self.join_plan(), graph, sales_catalog,
                            query_id=2)
        assert result.inserted_count == 0
        assert result.matched_count == 4

    def test_dependency_sets_cover_the_whole_subtree(self, graph,
                                                     sales_catalog):
        """Built from the children's sets at insertion, not by walking
        the plan: every level must still name every table below it."""
        stores = (q.scan("stores", ["store_id", "city"])
                   .project([("s_id", Col("store_id")), "city"]))
        plan = (q.scan("sales", ["quantity", "store_id"])
                 .join(stores, on=[("store_id", "s_id")])
                 .filter(Cmp(">", Col("quantity"), Lit(2)))
                 .aggregate(keys=["city"],
                            aggs=[("sum", Col("quantity"), "total")])
                 .build())
        result = match_tree(plan, graph, sales_catalog, query_id=1)
        assert result.of(plan).graph_node.tables == {"sales", "stores"}
        assert sorted(len(n.tables) for n in graph.nodes) == \
            [1, 1, 1, 2, 2, 2]
        assert all(n.functions == frozenset() for n in graph.nodes)
        graph.check_invariants()  # compares each set with a plan walk

    def test_join_key_mismatch_differs(self, graph, sales_catalog):
        match_tree(self.join_plan(), graph, sales_catalog, query_id=1)
        stores = (q.scan("stores", ["store_id", "city"])
                   .project([("s_id", Col("store_id")), "city"]))
        different = (q.scan("sales", ["sale_id", "store_id"])
                      .join(stores, on=[("sale_id", "s_id")])
                      .build())
        result = match_tree(different, graph, sales_catalog, query_id=2)
        assert result.inserted_count == 1  # the join node only


class TestUnification:
    def test_matching_is_idempotent(self, graph, sales_catalog):
        for qid in range(1, 6):
            match_tree(simple_plan(), graph, sales_catalog, query_id=qid)
        assert len(graph.nodes) == 3
        graph.check_invariants()

    def test_many_variants_linear_growth(self, graph, sales_catalog):
        for i in range(10):
            plan = (q.scan("sales", ["product", "quantity"])
                     .filter(Cmp(">", Col("quantity"), Lit(i)))
                     .build())
            match_tree(plan, graph, sales_catalog, query_id=i + 1)
        # one shared scan + ten selections
        assert len(graph.nodes) == 11


class TestOptimisticConcurrency:
    def test_version_conflict_raises(self, graph, sales_catalog):
        plan = q.scan("sales", ["product"]).build()
        result = match_tree(plan, graph, sales_catalog, query_id=1)
        leaf = result.of(plan).graph_node
        select = (q.scan("sales", ["product"])
                   .filter(Cmp("=", Col("product"), Lit("apple")))
                   .build())
        stale_version = leaf.version
        # Simulate a concurrent insertion bumping the leaf's version.
        other = (q.scan("sales", ["product"])
                  .filter(Cmp("=", Col("product"), Lit("pear")))
                  .build())
        match_tree(other, graph, sales_catalog, query_id=2)
        assert leaf.version != stale_version
        with pytest.raises(ConcurrencyConflict):
            mapping = {"product": "product"}
            graph.insert_node(select, node_keys(select, mapping), [leaf],
                              mapping, {}, query_id=3,
                              expected_versions=[stale_version])

    def test_match_tree_retries_after_conflict(self, graph, sales_catalog,
                                               monkeypatch):
        # Force one conflict on the first insert attempt, then succeed.
        original = graph.insert_node
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConcurrencyConflict("synthetic")
            return original(*args, **kwargs)

        monkeypatch.setattr(graph, "insert_node", flaky)
        plan = q.scan("sales", ["product"]).build()
        result = match_tree(plan, graph, sales_catalog, query_id=1)
        assert result.inserted_count == 1
        assert calls["n"] == 2
