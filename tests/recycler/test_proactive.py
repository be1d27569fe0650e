"""Tests for the proactive strategies (Section IV-B)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.columnar import (BinningSpec, Catalog, DATE, FLOAT64, INT64,
                            STRING, Table, date_to_days)
from repro.engine import execute_plan
from repro.expr import Cmp, Col, Lit
from repro.plan import q
from repro.plan.logical import Aggregate, Limit, Select, TopN, UnionAll
from repro.recycler import ProactiveRewriter, Recycler, RecyclerConfig


@pytest.fixture
def lineitem_catalog() -> Catalog:
    """A miniature lineitem-like table with dates and low-card columns."""
    rng = np.random.default_rng(5)
    n = 20000
    catalog = Catalog()
    start = date_to_days("1995-01-01")
    end = date_to_days("1998-12-01")
    schema = Table.from_rows(
        ["shipdate", "shipmode", "returnflag", "quantity", "price"],
        [DATE, STRING, STRING, INT64, FLOAT64], []).schema
    table = Table(schema, {
        "shipdate": rng.integers(start, end, n).astype(np.int32),
        "shipmode": rng.choice(
            np.array(["AIR", "RAIL", "SHIP", "TRUCK"], dtype=object), n),
        "returnflag": rng.choice(np.array(["A", "N", "R"], dtype=object),
                                 n),
        "quantity": rng.integers(1, 50, n),
        "price": rng.uniform(1.0, 100.0, n),
    })
    catalog.register_table("items", table)
    catalog.register_binning("items", BinningSpec("shipdate", "year"))
    return catalog


def config(**kw):
    defaults = dict(mode="pa", proactive_benefit_steered=False,
                    cache_capacity=None)
    defaults.update(kw)
    return RecyclerConfig(**defaults)


class TestTopNStrategy:
    def test_rewrite_shape(self, lineitem_catalog):
        rewriter = ProactiveRewriter(lineitem_catalog, config())
        plan = (q.scan("items", ["shipdate", "price"])
                 .top_n([("price", False)], limit=10)
                 .build())
        result = rewriter.apply(plan)
        assert [a.strategy for a in result.applications] == ["topn"]
        assert isinstance(result.plan, Limit)
        inner = result.plan.children[0]
        assert isinstance(inner, TopN)
        assert inner.limit == 10000

    def test_large_limits_untouched(self, lineitem_catalog):
        rewriter = ProactiveRewriter(lineitem_catalog, config())
        plan = (q.scan("items", ["price"])
                 .top_n([("price", False)], limit=20000)
                 .build())
        result = rewriter.apply(plan)
        assert not result.applications

    def test_correctness_and_reuse(self, lineitem_catalog):
        recycler = Recycler(lineitem_catalog, config())
        plan10 = (q.scan("items", ["shipdate", "price"])
                   .top_n([("price", False)], limit=10)
                   .build())
        expected10 = execute_plan(plan10, lineitem_catalog).table
        first = recycler.execute(plan10)
        assert first.table.to_rows() == expected10.to_rows()
        # A different N over the same query reuses the proactive topN via
        # exact matching of the inner node.
        plan25 = (q.scan("items", ["shipdate", "price"])
                   .top_n([("price", False)], limit=25)
                   .build())
        expected25 = execute_plan(plan25, lineitem_catalog).table
        second = recycler.execute(plan25)
        assert second.table.to_rows() == expected25.to_rows()
        assert second.stats.num_reused >= 1
        assert second.stats.total_cost < 0.1 * first.stats.total_cost


class TestCubeWithSelections:
    def plan(self, mode="AIR"):
        return (q.scan("items", ["shipmode", "returnflag", "quantity"])
                 .filter(Cmp("=", Col("shipmode"), Lit(mode)))
                 .aggregate(keys=["returnflag"],
                            aggs=[("sum", Col("quantity"), "sum_qty"),
                                  ("avg", Col("quantity"), "avg_qty")])
                 .build())

    def test_rewrite_shape(self, lineitem_catalog):
        rewriter = ProactiveRewriter(lineitem_catalog, config())
        result = rewriter.apply(self.plan())
        assert [a.strategy for a in result.applications] == ["cube_select"]
        # The selection must now sit above the (extended) aggregate.
        aggregates = [n for n in result.plan.walk()
                      if isinstance(n, Aggregate)]
        assert len(aggregates) == 2
        cube = aggregates[0]
        assert {name for name, _ in cube.group_keys} == \
            {"returnflag", "shipmode"}
        selects = [n for n in result.plan.walk() if isinstance(n, Select)]
        assert any(isinstance(s.children[0], Aggregate) for s in selects)

    def test_high_cardinality_not_rewritten(self, lineitem_catalog):
        rewriter = ProactiveRewriter(lineitem_catalog,
                                     config(proactive_group_threshold=2))
        result = rewriter.apply(self.plan())
        assert not result.applications

    def test_correctness(self, lineitem_catalog):
        recycler = Recycler(lineitem_catalog, config())
        for mode in ("AIR", "RAIL", "AIR", "SHIP"):
            plan = self.plan(mode)
            expected = execute_plan(plan, lineitem_catalog).table
            result = recycler.execute(self.plan(mode))
            assert result.table.sorted_rows() == expected.sorted_rows(), \
                mode

    def test_cube_shared_across_predicates(self, lineitem_catalog):
        recycler = Recycler(lineitem_catalog, config())
        first = recycler.execute(self.plan("AIR"))
        second = recycler.execute(self.plan("RAIL"))
        # Different predicate, but the cube is shared: big cost drop.
        assert second.stats.num_reused >= 1
        assert second.stats.total_cost < 0.2 * first.stats.total_cost


class TestCubeWithBinning:
    def plan(self, hi="1998-03-01"):
        return (q.scan("items", ["shipdate", "returnflag", "quantity"])
                 .filter(Cmp("<=", Col("shipdate"), Lit.date(hi)))
                 .aggregate(keys=["returnflag"],
                            aggs=[("sum", Col("quantity"), "sum_qty"),
                                  ("count_star", None, "n")])
                 .build())

    def test_rewrite_shape(self, lineitem_catalog):
        rewriter = ProactiveRewriter(lineitem_catalog, config())
        result = rewriter.apply(self.plan())
        assert [a.strategy for a in result.applications] == \
            ["cube_binning"]
        unions = [n for n in result.plan.walk()
                  if isinstance(n, UnionAll)]
        assert len(unions) == 1  # contained-bins branch + residual branch

    def test_correctness(self, lineitem_catalog):
        recycler = Recycler(lineitem_catalog, config())
        for hi in ("1998-03-01", "1997-09-15", "1998-03-01"):
            plan = self.plan(hi)
            expected = execute_plan(plan, lineitem_catalog).table
            result = recycler.execute(self.plan(hi))
            got = result.table.sorted_rows()
            want = expected.sorted_rows()
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[0] == w[0]
                assert g[1] == pytest.approx(w[1])
                assert g[2] == w[2]

    def test_binned_cube_shared_across_ranges(self, lineitem_catalog):
        recycler = Recycler(lineitem_catalog, config())
        first = recycler.execute(self.plan("1998-03-01"))
        second = recycler.execute(self.plan("1997-06-30"))
        # The year-binned cube is shared; only the residual days differ.
        assert second.stats.num_reused >= 1
        assert second.stats.total_cost < 0.6 * first.stats.total_cost

    def test_no_binning_spec_no_rewrite(self, lineitem_catalog):
        lineitem_catalog.table_entry("items").binnings.clear()
        rewriter = ProactiveRewriter(lineitem_catalog, config())
        result = rewriter.apply(self.plan())
        assert not result.applications

    def test_a_cached_statement_sees_a_later_binning_spec(
            self, lineitem_catalog):
        """A statement resolves its proactive variant once per DDL
        clock; declaring a binning spec moves the clock."""
        lineitem_catalog.table_entry("items").binnings.clear()
        db = Database(config(), catalog=lineitem_catalog)
        text = ("SELECT returnflag, sum(quantity) AS sum_qty,"
                " count(*) AS n FROM items"
                " WHERE shipdate <= DATE '1998-03-01' GROUP BY returnflag")
        try:
            assert db.sql(text).record.proactive == ()
            db.register_binning("items", BinningSpec("shipdate", "year"))
            assert db.sql(text).record.proactive == ("cube_binning",)
        finally:
            db.close()


class TestBenefitSteering:
    def test_steered_mode_defers_then_fires(self, lineitem_catalog):
        recycler = Recycler(lineitem_catalog, config(
            proactive_benefit_steered=True))
        plan = (q.scan("items", ["shipmode", "returnflag", "quantity"])
                 .filter(Cmp("=", Col("shipmode"), Lit("AIR")))
                 .aggregate(keys=["returnflag"],
                            aggs=[("sum", Col("quantity"), "s")])
                 .build())

        def fresh():
            return (q.scan("items",
                           ["shipmode", "returnflag", "quantity"])
                     .filter(Cmp("=", Col("shipmode"), Lit("AIR")))
                     .aggregate(keys=["returnflag"],
                                aggs=[("sum", Col("quantity"), "s")])
                     .build())

        p1 = recycler.prepare(fresh())
        assert not p1.proactive_executed  # anchor never seen: deferred
        result = execute_plan(p1.executed_plan, lineitem_catalog,
                              stores=p1.stores)
        recycler.finalize(p1, result.stats)
        p2 = recycler.prepare(fresh())
        # Second occurrence: the anchor has references now.
        assert p2.proactive_executed
