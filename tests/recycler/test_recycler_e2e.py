"""End-to-end recycler behaviour: modes, speculation, reuse correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnar import Catalog, FLOAT64, INT64, Table
from repro.engine import execute_plan
from repro.expr import Arith, Cmp, Col, Lit
from repro.plan import q
from repro.recycler import Recycler, RecyclerConfig


@pytest.fixture
def big_catalog() -> Catalog:
    rng = np.random.default_rng(11)
    n = 30000
    catalog = Catalog()
    schema = Table.from_rows(["k", "g", "v"], [INT64, INT64, FLOAT64],
                             []).schema
    catalog.register_table("t", Table(schema, {
        "k": np.arange(n, dtype=np.int64),
        "g": rng.integers(0, 12, n),
        "v": rng.normal(50.0, 10.0, n),
    }))
    return catalog


def agg_plan(alias="sv"):
    return (q.scan("t", ["g", "v"])
             .filter(Cmp(">", Col("v"), Lit(45.0)))
             .aggregate(keys=["g"], aggs=[("sum", Col("v"), alias)])
             .build())


class TestModes:
    def test_off_mode_never_caches(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="off"))
        first = recycler.execute(agg_plan())
        second = recycler.execute(agg_plan())
        assert second.stats.total_cost == pytest.approx(
            first.stats.total_cost)
        assert len(recycler.cache) == 0
        assert len(recycler.graph.nodes) == 0

    def test_spec_mode_benefits_on_second_run(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        first = recycler.execute(agg_plan())
        second = recycler.execute(agg_plan())
        # Speculation materialized on the first run; the second reuses.
        assert second.stats.num_reused >= 1
        assert second.stats.total_cost < 0.05 * first.stats.total_cost

    def test_hist_mode_needs_three_occurrences(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="hist"))
        first = recycler.execute(agg_plan())
        second = recycler.execute(agg_plan())
        third = recycler.execute(agg_plan())
        # 1st: insert; 2nd: store decision (materializes, so it still
        # executes in full, plus overhead); 3rd: reuse.
        assert second.stats.num_reused == 0
        assert second.stats.num_stored >= 1
        assert third.stats.num_reused >= 1
        assert third.stats.total_cost < 0.05 * first.stats.total_cost

    def test_hist_misses_twice_occurring_results(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="hist"))
        recycler.execute(agg_plan())
        second = recycler.execute(agg_plan())
        # The paper: history mode always misses one reuse possibility.
        assert second.stats.num_reused == 0


class TestReuseCorrectness:
    def test_reuse_with_different_alias(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        recycler.execute(agg_plan("first_alias"))
        result = recycler.execute(agg_plan("second_alias"))
        assert result.stats.num_reused >= 1
        expected = execute_plan(agg_plan("second_alias"),
                                big_catalog).table
        assert result.table.schema.names == ["g", "second_alias"]
        assert result.table.sorted_rows() == expected.sorted_rows()

    def test_partial_subtree_reuse(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(
            mode="spec", speculation_min_cost=0.0))
        recycler.execute(agg_plan())
        # A different query sharing only the aggregate's input subtree
        # cannot reuse the aggregate itself; but one sharing the whole
        # subtree plus a projection on top reuses the aggregate.
        extended = (q.scan("t", ["g", "v"])
                     .filter(Cmp(">", Col("v"), Lit(45.0)))
                     .aggregate(keys=["g"], aggs=[("sum", Col("v"), "sv")])
                     .project([("g", Col("g")),
                               ("double_sv",
                                Arith("*", Col("sv"), Lit(2.0)))])
                     .build())
        result = recycler.execute(extended)
        assert result.stats.num_reused >= 1
        expected = execute_plan(extended, big_catalog).table
        assert result.table.sorted_rows() == expected.sorted_rows()

    def test_chain_reuse_prefers_highest_node(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        recycler.execute(agg_plan())
        prepared = recycler.prepare(agg_plan())
        # Only one reuse: the topmost (aggregate) node; nothing below.
        assert len(prepared.reuses) == 1
        assert prepared.reuses[0].target.op_name == "aggregate"

    def test_results_identical_across_all_modes(self, big_catalog):
        expected = execute_plan(agg_plan(), big_catalog).table.sorted_rows()
        for mode in ("off", "hist", "spec", "pa"):
            recycler = Recycler(big_catalog, RecyclerConfig(mode=mode))
            for _ in range(4):
                result = recycler.execute(agg_plan())
                assert result.table.sorted_rows() == expected, mode


class TestSpeculation:
    def test_speculation_skips_cheap_results(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(
            mode="spec", speculation_min_cost=1e9))
        recycler.execute(agg_plan())
        assert len(recycler.cache) == 0

    def test_speculation_skips_large_results(self, big_catalog):
        # The selection result is big (thousands of rows); the benefit
        # with h=0.001 is tiny, so it must not be materialized; the small
        # aggregate should be.
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        recycler.execute(agg_plan())
        kinds = {e.node.op_name for e in recycler.cache.entries()}
        assert "aggregate" in kinds
        assert "select" not in kinds

    def test_store_abort_releases_inflight(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(
            mode="spec", speculation_min_cost=1e9))
        prepared = recycler.prepare(agg_plan())
        assert len(prepared.stores) >= 1
        assert len(recycler.inflight) >= 1
        result = execute_plan(prepared.executed_plan, big_catalog,
                              stores=prepared.stores)
        recycler.finalize(prepared, result.stats)
        assert len(recycler.inflight) == 0


class TestGraphAnnotations:
    def test_executed_nodes_get_stats(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        plan = agg_plan()
        recycler.execute(plan)
        executed = [n for n in recycler.graph.nodes if n.exec_count > 0]
        assert len(executed) == 3  # scan, select, aggregate
        for node in executed:
            assert node.bcost > 0
            assert node.rows >= 0
            assert node.size_bytes >= 0

    def test_bcost_reconstructed_through_reuse(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        recycler.execute(agg_plan())
        agg_node = next(n for n in recycler.graph.nodes
                        if n.op_name == "aggregate")
        bcost_first = agg_node.bcost
        # Re-running reuses the cached result; bcost must not collapse to
        # the (tiny) reuse cost.
        recycler.execute(agg_plan())
        assert agg_node.bcost == pytest.approx(bcost_first, rel=0.05)

    def test_cache_flush_enables_recompute(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        baseline = recycler.execute(agg_plan()).stats.total_cost
        recycler.execute(agg_plan())
        assert recycler.flush_cache() >= 1
        after_flush = recycler.execute(agg_plan())
        # Recomputes (roughly baseline cost, modulo store overhead).
        assert after_flush.stats.total_cost > 0.5 * baseline


class TestInvalidation:
    def test_invalidate_table_evicts_dependents(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        recycler.execute(agg_plan())
        assert len(recycler.cache) >= 1
        assert recycler.invalidate_table("t") >= 1
        assert len(recycler.cache) == 0


class TestInvariantsUnderChurn:
    def test_many_query_variants_keep_invariants(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(
            mode="spec", cache_capacity=64 * 1024))
        rng = np.random.default_rng(3)
        for i in range(40):
            threshold = float(rng.choice([40.0, 45.0, 50.0, 55.0]))
            plan = (q.scan("t", ["g", "v"])
                     .filter(Cmp(">", Col("v"), Lit(threshold)))
                     .aggregate(keys=["g"],
                                aggs=[("sum", Col("v"), "sv"),
                                      ("count_star", None, "n")])
                     .build())
            recycler.execute(plan)
            recycler.graph.check_invariants()
            recycler.cache.check_invariants()
        summary = recycler.summary()
        assert summary["cache"].reuses > 0
