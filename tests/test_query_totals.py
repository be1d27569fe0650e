"""Counting queries takes constant space.

The summaries read running totals (``QueryTotals``), not a log of every
query: a session that has answered thousands of warm statements holds
no more than it did after the first few.  The first piece of the soak
the roadmap asks for — warm traffic must not leak.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro import Database, RecyclerConfig
from repro.recycler.recycler import QueryRecord, QueryTotals
from repro.workloads import skyserver
from repro.workloads.skyserver import queries

CONES = [(195.0, 2.5, 0.4), (194.6, 2.0, 0.4), (195.4, 3.0, 0.4)]
WARM = 2000
#: bytes a warm statement may leave behind, on average: a log entry
#: per statement costs about 300
MAX_BYTES_KEPT = 16


def warm_texts() -> list[str]:
    return [queries.primary_pattern(cone) for cone in CONES] + \
        [queries.type_histogram_variant(CONES[0]),
         queries.magnitude_variant(CONES[1], mag=20.0)]


def test_warm_statements_keep_constant_space():
    db = Database(RecyclerConfig(mode="spec"),
                  catalog=skyserver.build_catalog(num_rows=2000))
    texts = warm_texts()
    session = db.connect()
    for _ in range(3):  # cached, templated, and memoized for root hits
        for text in texts:
            session.sql(text)
    root_hits = db.summary()["optimizer"]["root_hits"]

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(WARM):
            result = session.sql(texts[index % len(texts)])
        del result
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    session.close()

    summary = db.summary()
    # every timed statement was a full-plan hit, and every one counted
    assert summary["optimizer"]["root_hits"] - root_hits == WARM
    assert summary["queries"] == WARM + 3 * len(texts)
    assert session.summary()["queries"] == WARM + 3 * len(texts)
    assert kept / WARM < MAX_BYTES_KEPT, f"{kept / WARM:.1f} B/statement"
    assert len(db.recycler.inflight) == 0
    assert not db.recycler.inflight.active_nodes()
    db.recycler.graph.check_invariants()
    db.close()


def test_totals_sum_like_a_log():
    """The totals add in the order records arrive, from ``0``, as
    ``sum`` over a list of the records would: float sums are
    bit-identical, and a full-plan hit is a query with matched and no
    inserted nodes."""
    records = [QueryRecord(query_id=i, label="", total_cost=cost,
                           wall_seconds=0.0, matching_seconds=cost / 7,
                           num_reused=i % 2, num_stores_injected=0,
                           num_materialized=i % 3, graph_nodes=0,
                           stall_seconds=cost / 3, num_matched=i % 4,
                           num_inserted=i % 5)
               for i, cost in enumerate([0.1, 0.2, 0.3, 1e16, 1.0, -1e16])]
    totals = QueryTotals()
    for record in records:
        totals.add(record)
    names = ("total_cost", "matching_seconds", "stall_seconds",
             "num_reused", "num_materialized", "num_matched",
             "num_inserted")
    assert totals.as_dict("queries", *names) == {
        "queries": len(records),
        **{name: sum(getattr(r, name) for r in records) for name in names}}
    assert totals.full_plan_hits == sum(
        1 for r in records if r.num_matched > 0 and r.num_inserted == 0)


class UnwalkedNodes(list):
    """A ``graph.nodes`` that fails the test when walked."""

    def __iter__(self):
        raise AssertionError("walked every graph node")


def test_summary_walks_no_graph_node():
    """A summary (so every ``/metrics`` scrape) reads counters: it never
    walks the graph, whose size grows with the workload."""
    db = Database(RecyclerConfig(mode="spec"),
                  catalog=skyserver.build_catalog(num_rows=2000))
    for text in warm_texts() * 2:
        db.sql(text)
    graph = db.recycler.graph
    nodes = len(graph.nodes)
    graph.nodes = UnwalkedNodes(graph.nodes)
    summary = db.summary()
    assert summary["graph"]["nodes"] == nodes
    assert summary["cache_entries"] > 0
    db.close()
