"""Cache-level halves of the shape-miss regressions.

``tests/plan/test_optimizer.py`` proves the three reproduced miss bugs
now share a fingerprint; these tests prove the part the user observes:
a warm query in one shape is *served from the cache entry produced by
the other shape*, byte-identical, in both directions.  Where a test
needs a reference that saw no canonicalization, it runs the as-built
plan straight through ``execute_plan`` — no optimizer, no recycler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.columnar import Catalog, FLOAT64, INT64, Table
from repro.engine import execute_plan
from repro.expr import And, Arith, Cmp, Col, Lit
from repro.plan import q
from repro.recycler import (Recycler, RecyclerConfig, RecyclerGraph,
                            match_tree)


@pytest.fixture
def big_catalog() -> Catalog:
    rng = np.random.default_rng(23)
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


def stacked_filters():
    return (q.scan("t", ["k", "g", "v"])
             .filter(Cmp("<", Col("k"), Lit(20000)))
             .filter(Cmp(">", Col("v"), Lit(45.0)))
             .aggregate(keys=["g"], aggs=[("sum", Col("v"), "sv")])
             .build())


def merged_filter():
    return (q.scan("t", ["k", "g", "v"])
             .filter(And([Cmp(">", Col("v"), Lit(45.0)),
                          Cmp("<", Col("k"), Lit(20000))]))
             .aggregate(keys=["g"], aggs=[("sum", Col("v"), "sv")])
             .build())


def int_literal():
    return (q.scan("t", ["k", "g"])
             .filter(Cmp("<", Col("k"), Lit(15000)))
             .aggregate(keys=["g"], aggs=[("count", Col("k"), "n")])
             .build())


def float_literal():
    return (q.scan("t", ["k", "g"])
             .filter(Cmp("<", Col("k"), Lit(15000.0)))
             .aggregate(keys=["g"], aggs=[("count", Col("k"), "n")])
             .build())


def bare_filter():
    return (q.scan("t", ["k", "v"])
             .filter(Cmp(">", Col("v"), Lit(75.0)))
             .build())


def projected_filter():
    return (q.scan("t", ["k", "v"])
             .filter(Cmp(">", Col("v"), Lit(75.0)))
             .project(["k", "v"])
             .build())


SHAPE_PAIRS = [
    pytest.param(stacked_filters, merged_filter, id="stacked-vs-and"),
    pytest.param(int_literal, float_literal, id="int-vs-float-literal"),
    pytest.param(bare_filter, projected_filter, id="identity-project"),
]


def assert_tables_identical(expected, actual):
    assert actual.schema.names == expected.schema.names
    assert actual.schema.types == expected.schema.types
    for name in expected.schema.names:
        want, have = expected.column(name), actual.column(name)
        assert have.dtype == want.dtype
        assert np.array_equal(want, have)


class TestCrossShapeReuse:
    @pytest.mark.parametrize("cold_shape,warm_shape", SHAPE_PAIRS)
    def test_warm_shape_served_from_cold_entry(self, big_catalog,
                                               cold_shape, warm_shape):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        cold = recycler.execute(cold_shape())
        warm = recycler.execute(warm_shape())
        assert warm.stats.num_reused >= 1
        assert warm.stats.total_cost < 0.1 * cold.stats.total_cost
        # every node of the warm shape resolved to an existing graph
        # node: the equivalence class truly is one subtree
        assert warm.record.num_inserted == 0
        assert_tables_identical(cold.table, warm.table)

    @pytest.mark.parametrize("cold_shape,warm_shape", SHAPE_PAIRS)
    def test_reverse_direction(self, big_catalog, cold_shape,
                               warm_shape):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        cold = recycler.execute(warm_shape())
        warm = recycler.execute(cold_shape())
        assert warm.stats.num_reused >= 1
        assert_tables_identical(cold.table, warm.table)


class TestCostGatedReuse:
    def test_cheap_wide_result_recomputed(self, big_catalog):
        # A bare column projection is cheaper to recompute than to
        # re-emit row by row; the cost gate skips its cached entry and
        # counts the skip.
        recycler = Recycler(big_catalog, RecyclerConfig(
            mode="spec", speculation_min_cost=0.0))
        plan = q.scan("t", ["k"]).build()
        first = recycler.execute(plan)
        second = recycler.execute(plan)
        summary = recycler.optimizer_summary()
        if summary["reuse_cost_skips"]:
            assert second.stats.num_reused == 0
            assert_tables_identical(first.table, second.table)

    def test_expensive_result_still_reused(self, big_catalog):
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        recycler.execute(stacked_filters())
        warm = recycler.execute(stacked_filters())
        assert warm.stats.num_reused >= 1


class TestObservability:
    def test_database_summary_exposes_optimizer_section(self,
                                                        big_catalog):
        db = Database(RecyclerConfig(mode="spec"), catalog=big_catalog)
        db.execute(stacked_filters())
        db.execute(merged_filter())
        section = db.summary()["optimizer"]
        assert section["rewrites"]["merge_selects"] >= 1
        assert section["nodes_matched"] >= 1
        assert 0.0 < section["match_rate"] <= 1.0
        assert section["match_rate"] == pytest.approx(
            section["nodes_matched"]
            / (section["nodes_matched"] + section["nodes_inserted"]))

    def test_expression_layer_still_canonicalizes_alone(self,
                                                        big_catalog):
        # sanity: And-arg order never split fingerprints, even before
        # the optimizer runs — the pass closes *plan*-shape misses only.
        flip = (q.scan("t", ["k", "g", "v"])
                 .filter(And([Cmp("<", Col("k"), Lit(20000)),
                              Cmp(">", Col("v"), Lit(45.0))]))
                 .aggregate(keys=["g"], aggs=[("sum", Col("v"), "sv")])
                 .build())
        graph = RecyclerGraph(big_catalog)
        match_tree(merged_filter(), graph, big_catalog, query_id=1)
        warm = match_tree(flip, graph, big_catalog, query_id=2)
        assert warm.inserted_count == 0


class TestPassThroughNameMapping:
    """Scan leaves match with their column set unordered, so the name
    mapping above pass-through operators must translate by name, not
    position — positionally, a reordered scan silently swaps names.
    """

    def _shapes(self):
        a = (q.scan("t", ["k", "g", "v"])
              .filter(Cmp(">", Col("v"), Lit(60.0)))
              .aggregate(keys=["g"], aggs=[("sum", Col("v"), "sv")])
              .build())
        # same query, scan columns spelled in another order
        a2 = (q.scan("t", ["g", "k", "v"])
               .filter(Cmp(">", Col("v"), Lit(60.0)))
               .aggregate(keys=["g"], aggs=[("sum", Col("v"), "sv")])
               .build())
        # different query: groups by k, over the reordered scan
        b = (q.scan("t", ["g", "k", "v"])
              .filter(Cmp(">", Col("v"), Lit(60.0)))
              .aggregate(keys=["k"], aggs=[("sum", Col("v"), "sv")])
              .build())
        return a, a2, b

    def test_group_by_other_column_never_reuses(self, big_catalog):
        # regression: with positional output pairing the reordered scan
        # mapped g<->k, so the GROUP BY k query *reused the GROUP BY g
        # entry* — wrong rows, silently
        a, _, b = self._shapes()
        recycler = Recycler(big_catalog, RecyclerConfig(
            mode="spec", speculation_min_cost=0.0))
        recycler.execute(a)
        got = recycler.execute(b)
        reference = execute_plan(b, big_catalog.snapshot())
        assert_tables_identical(reference.table, got.table)

    def test_reordered_scan_spelling_shares(self, big_catalog):
        # ... while the genuinely identical query, spelled over a
        # reordered scan, fully unifies: the optimizer rewrites both
        # scans to base-table column order (the order is invisible
        # below the Aggregate), so they are one graph leaf
        a, a2, _ = self._shapes()
        recycler = Recycler(big_catalog, RecyclerConfig(mode="spec"))
        cold = recycler.execute(a)
        warm = recycler.execute(a2)
        assert warm.stats.num_reused >= 1
        assert warm.record.num_inserted == 0
        assert_tables_identical(cold.table, warm.table)


class TestLiteralNormalizationSafety:
    def test_arith_literal_dtype_preserved(self, big_catalog):
        # v + 1.0 must stay FLOAT64 arithmetic: the canonicalized plan
        # and the as-built one return byte-identical columns.
        plan = (q.scan("t", ["k", "v"])
                 .project([("k", Col("k")),
                           ("v1", Arith("+", Col("v"), Lit(1.0)))])
                 .filter(Cmp(">", Col("v1"), Lit(60)))
                 .build())
        on = Recycler(big_catalog,
                      RecyclerConfig(mode="spec")).execute(plan)
        as_built = execute_plan(plan, big_catalog.snapshot())
        assert_tables_identical(as_built.table, on.table)
