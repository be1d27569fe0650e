"""Tests for subsumption: edges, the subsumes test, and compensations."""

from __future__ import annotations

import pytest

from repro.engine import execute_plan
from repro.expr import And, Cmp, Col, Lit
from repro.plan import q
from repro.recycler import Recycler, RecyclerConfig


def run_naive(plan, catalog):
    return execute_plan(plan, catalog).table


@pytest.fixture
def recycler(sales_catalog):
    return Recycler(sales_catalog, RecyclerConfig(
        mode="spec", cache_capacity=None,
        speculation_min_cost=0.0,
        min_store_cost=0.0, benefit_threshold=0.0))


class TestSelectTupleSubsumption:
    def test_narrower_range_reuses_wider_cached(self, recycler,
                                                sales_catalog):
        wide = (q.scan("sales", ["sale_id", "quantity"])
                 .filter(Cmp(">", Col("quantity"), Lit(1)))
                 .build())
        recycler.execute(wide)
        recycler.execute((q.scan("sales", ["sale_id", "quantity"])
                          .filter(Cmp(">", Col("quantity"), Lit(1)))
                          .build()))  # second run materializes / reuses
        narrow_plan = (q.scan("sales", ["sale_id", "quantity"])
                        .filter(Cmp(">", Col("quantity"), Lit(4)))
                        .build())
        prepared = recycler.prepare(narrow_plan)
        kinds = [r.kind for r in prepared.reuses]
        if "subsumption" in kinds:
            from repro.engine import execute_plan as ep
            result = ep(prepared.executed_plan, sales_catalog,
                        stores=prepared.stores)
            expected = run_naive(narrow_plan, sales_catalog)
            assert result.table.sorted_rows() == expected.sorted_rows()
        else:
            pytest.skip("wider select was not cached in this setup")

    def test_subsumption_result_correctness(self, recycler, sales_catalog):
        # Force-cache the wide selection, then ask for a strictly narrower
        # one and compare against naive execution.
        wide = (q.scan("sales", ["sale_id", "quantity", "product"])
                 .filter(Cmp(">=", Col("quantity"), Lit(2)))
                 .build())
        recycler.execute(wide)
        recycler.execute((q.scan("sales",
                                 ["sale_id", "quantity", "product"])
                          .filter(Cmp(">=", Col("quantity"), Lit(2)))
                          .build()))
        narrow = (q.scan("sales", ["sale_id", "quantity", "product"])
                   .filter(And([Cmp(">=", Col("quantity"), Lit(2)),
                                Cmp("<", Col("quantity"), Lit(6))]))
                   .build())
        result = recycler.execute(narrow)
        expected = run_naive(narrow, sales_catalog)
        assert result.table.sorted_rows() == expected.sorted_rows()

    def test_unrelated_predicate_is_not_subsumed(self, recycler,
                                                 sales_catalog):
        a = (q.scan("sales", ["sale_id", "quantity"])
              .filter(Cmp(">", Col("quantity"), Lit(3)))
              .build())
        recycler.execute(a)
        recycler.execute((q.scan("sales", ["sale_id", "quantity"])
                          .filter(Cmp(">", Col("quantity"), Lit(3)))
                          .build()))
        b = (q.scan("sales", ["sale_id", "quantity"])
              .filter(Cmp("<", Col("quantity"), Lit(2)))
              .build())
        prepared = recycler.prepare(b)
        assert all(r.kind != "subsumption" for r in prepared.reuses)


class TestAggregateSubsumption:
    def make(self, keys, aggs):
        return (q.scan("sales", ["store_id", "product", "quantity"])
                 .aggregate(keys=keys, aggs=aggs)
                 .build())

    def cache_fine_aggregate(self, recycler):
        fine = self.make(["store_id", "product"],
                         [("sum", Col("quantity"), "s"),
                          ("count_star", None, "c"),
                          ("min", Col("quantity"), "lo"),
                          ("max", Col("quantity"), "hi")])
        recycler.execute(fine)
        recycler.execute(self.make(["store_id", "product"],
                                   [("sum", Col("quantity"), "s"),
                                    ("count_star", None, "c"),
                                    ("min", Col("quantity"), "lo"),
                                    ("max", Col("quantity"), "hi")]))

    def test_rollup_from_finer_group_by(self, recycler, sales_catalog):
        self.cache_fine_aggregate(recycler)
        coarse = self.make(["product"], [("sum", Col("quantity"), "s2"),
                                         ("count_star", None, "c2"),
                                         ("min", Col("quantity"), "lo2"),
                                         ("max", Col("quantity"), "hi2")])
        prepared = recycler.prepare(coarse)
        assert any(r.kind == "subsumption" for r in prepared.reuses)
        result = recycler.execute(
            self.make(["product"], [("sum", Col("quantity"), "s2"),
                                    ("count_star", None, "c2"),
                                    ("min", Col("quantity"), "lo2"),
                                    ("max", Col("quantity"), "hi2")]))
        expected = run_naive(coarse, sales_catalog)
        assert result.table.sorted_rows() == expected.sorted_rows()

    def test_avg_recombines_sum_and_count(self, recycler, sales_catalog):
        self.cache_fine_aggregate(recycler)
        coarse = self.make(["product"], [("avg", Col("quantity"), "a")])
        result = recycler.execute(coarse)
        expected = run_naive(self.make(["product"],
                                       [("avg", Col("quantity"), "a")]),
                             sales_catalog)
        assert result.table.sorted_rows() == expected.sorted_rows()

    def test_column_subsumption_same_keys(self, recycler, sales_catalog):
        self.cache_fine_aggregate(recycler)
        subset = self.make(["store_id", "product"],
                           [("sum", Col("quantity"), "just_sum")])
        prepared = recycler.prepare(subset)
        assert any(r.kind == "subsumption" for r in prepared.reuses)
        result = recycler.execute(self.make(
            ["store_id", "product"], [("sum", Col("quantity"), "just_sum")]))
        expected = run_naive(subset, sales_catalog)
        assert result.table.sorted_rows() == expected.sorted_rows()

    def test_missing_aggregate_blocks_subsumption(self, recycler,
                                                  sales_catalog):
        fine = self.make(["store_id", "product"],
                         [("min", Col("quantity"), "lo")])
        recycler.execute(fine)
        recycler.execute(self.make(["store_id", "product"],
                                   [("min", Col("quantity"), "lo")]))
        other = self.make(["product"], [("sum", Col("quantity"), "s")])
        prepared = recycler.prepare(other)
        assert all(r.kind != "subsumption" for r in prepared.reuses)


class TestTopNSubsumption:
    def test_smaller_limit_reuses_larger_topn(self, recycler,
                                              sales_catalog):
        big = (q.scan("sales", ["sale_id", "price"])
                .top_n([("price", False)], limit=6)
                .build())
        recycler.execute(big)
        recycler.execute((q.scan("sales", ["sale_id", "price"])
                          .top_n([("price", False)], limit=6)
                          .build()))
        small = (q.scan("sales", ["sale_id", "price"])
                  .top_n([("price", False)], limit=2)
                  .build())
        prepared = recycler.prepare(small)
        assert any(r.kind == "subsumption" for r in prepared.reuses)
        result = recycler.execute(
            (q.scan("sales", ["sale_id", "price"])
              .top_n([("price", False)], limit=2)
              .build()))
        expected = run_naive(small, sales_catalog)
        assert result.table.to_rows() == expected.to_rows()

    def test_different_sort_keys_not_subsumed(self, recycler):
        big = (q.scan("sales", ["sale_id", "price"])
                .top_n([("price", False)], limit=6)
                .build())
        recycler.execute(big)
        recycler.execute((q.scan("sales", ["sale_id", "price"])
                          .top_n([("price", False)], limit=6)
                          .build()))
        other = (q.scan("sales", ["sale_id", "price"])
                  .top_n([("price", True)], limit=2)
                  .build())
        prepared = recycler.prepare(other)
        assert all(r.kind != "subsumption" for r in prepared.reuses)


class TestScanColumnSubsumption:
    def test_scan_subset_served_from_wider_scan(self, sales_catalog):
        config = RecyclerConfig(mode="spec", cache_capacity=None,
                                speculation_min_cost=0.0,
                                min_store_cost=0.0, benefit_threshold=0.0)
        recycler = Recycler(sales_catalog, config)
        # Make the scan itself cacheable by forcing it through speculation.
        wide = q.scan("sales", ["sale_id", "product", "quantity"]).build()
        recycler.execute(wide)
        recycler.execute(
            q.scan("sales", ["sale_id", "product", "quantity"]).build())
        wide_match = recycler.prepare(
            q.scan("sales", ["sale_id", "product", "quantity"]).build())
        if not wide_match.reuses:
            pytest.skip("scan was not cached under this configuration")
        narrow = q.scan("sales", ["sale_id", "product"]).build()
        result = recycler.execute(narrow)
        expected = run_naive(q.scan("sales",
                                    ["sale_id", "product"]).build(),
                             sales_catalog)
        assert result.table.sorted_rows() == expected.sorted_rows()


class TestSubsumptionEdges:
    def test_edges_point_to_most_specific(self, sales_catalog):
        from repro.recycler import RecyclerGraph, SubsumptionIndex
        from repro.recycler import match_tree
        graph = RecyclerGraph(sales_catalog)
        index = SubsumptionIndex(graph)

        def insert(threshold, qid):
            plan = (q.scan("sales", ["sale_id", "quantity"])
                     .filter(Cmp(">", Col("quantity"), Lit(threshold)))
                     .build())
            m = match_tree(plan, graph, sales_catalog, query_id=qid,
                           subsumption_hook=index.on_insert)
            return m.of(plan).graph_node

        wide = insert(0, 1)     # quantity > 0  (widest)
        mid = insert(3, 2)      # quantity > 3
        narrow = insert(5, 3)   # quantity > 5  (narrowest)
        # narrow's most specific subsumer is mid, not wide (Fig. 4).
        assert mid in narrow.subsumers
        assert wide not in narrow.subsumers
        assert wide in mid.subsumers
