"""Property: the memoized Eq. 2 true cost (``BenefitModel.true_cost``)
never goes stale.

Each graph node keeps the true cost it last computed, tagged with the
graph's cost epoch; every ``bcost`` write and every entry a node gains
or loses moves the epoch.  So after any op — statements under cache
pressure (admissions, evictions, rejections), appends that invalidate
or extend cached results, maintenance that truncates — a memo tagged
with the current epoch must equal a fresh walk to the node's direct
materialized descendants, bit for bit.

After each check every node's memo is refreshed, so the next op has to
invalidate what it changes.  A threaded case bumps the epoch from
graph-lock holders (statistics writes) and cache-lock holders
(admission and eviction) at once: no bump may be lost.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.columnar import Catalog, FLOAT64, INT64, Table
from repro.expr import Cmp, Col, Lit
from repro.plan import q
from repro.recycler.benefit import BenefitModel
from repro.recycler.cache import RecyclerCache
from repro.recycler.graph import RecyclerGraph
from repro.recycler.matching import match_tree

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.harness import execute_op  # noqa: E402
from bench.workloads import APPEND, WORKLOADS  # noqa: E402

SEED = 11


def fresh_true_cost(graph: RecyclerGraph, node) -> float:
    """Eq. 2 walked afresh, in the walk order the memo replaces."""
    cost = node.bcost
    for dmd in graph.dmds(node):
        cost -= dmd.bcost
    return max(cost, 0.0)


def check_memos(db) -> int:
    """Assert every current memo equals a fresh walk and the cache's
    invariants hold; then memoize every node afresh.  Returns how many
    memos were still current when checked."""
    recycler = db.recycler
    graph, model = recycler.graph, recycler.model
    current = 0
    for node in graph.nodes:
        epoch, cost = node.cost_memo
        if epoch == graph.cost_epoch:
            current += 1
            assert cost == fresh_true_cost(graph, node), node
    recycler.cache.check_invariants()
    for node in graph.nodes:
        assert model.true_cost(node) == fresh_true_cost(graph, node)
    return current


@pytest.mark.parametrize("name,size", [("tpch_pressure", 0.25),
                                       ("ts_append", 0.1)])
def test_memo_equals_a_fresh_walk_after_every_op(name, size):
    workload = WORKLOADS[name]
    ops = workload.make_ops(SEED, size)
    db = workload.build(SEED, size, "spec")
    try:
        current = 0
        for text in workload.priming(ops):
            db.sql(text)
            current += check_memos(db)
        for op in ops:
            execute_op(db, op, SEED)
            current += check_memos(db)
        counters = db.recycler.cache.counters
        # premise: the replay changed entries and statistics between
        # checks, and memos survived ops that changed nothing of theirs
        assert counters.admitted > 0 and current > 0
        if name == "tpch_pressure":
            assert counters.evicted > 0 and counters.rejected > 0
        else:
            assert any(op.kind == APPEND for op in ops)
            assert counters.invalidations > 0
            assert db.summary()["catalog"]["entries_extended"] > 0
    finally:
        db.close()


def test_epoch_bumps_are_never_lost():
    """Statistics writers (graph lock) and admitting / evicting threads
    (cache lock) bump the epoch concurrently while readers memoize:
    the epoch counts every bump, and every current memo is exact."""
    catalog = Catalog()
    catalog.register_table("t", Table(
        Table.from_rows(["x", "y"], [INT64, FLOAT64], []).schema,
        {"x": np.arange(64, dtype=np.int64),
         "y": np.linspace(0.0, 1.0, 64)}))
    graph = RecyclerGraph(catalog)
    model = BenefitModel(graph)
    cache = RecyclerCache(model, capacity=None)
    nodes = []
    for i in range(8):
        plan = (q.scan("t", ["x", "y"])
                 .filter(Cmp(">", Col("x"), Lit(i)))
                 .project(["y"])
                 .build())
        matches = match_tree(plan, graph, catalog, query_id=i + 1)
        nodes.append(matches.of(plan).graph_node)
    table = Table(Table.from_rows(["y"], [FLOAT64], []).schema,
                  {"y": np.zeros(4)})
    rounds = 2000
    writes = [0] * 4

    def write_stats(worker: int) -> None:
        for i in range(rounds):
            node = graph.nodes[(worker + i) % len(graph.nodes)]
            graph.record_measurement(node, float(i + worker), 4, 32)
            writes[worker] += 1

    def churn_entries(worker: int) -> None:
        for i in range(rounds):
            node = nodes[(worker * 2 + i) % len(nodes)]
            cache.admit(node, table)
            entry = node.entry
            if entry is not None:
                cache.evict(entry)

    def read_costs(worker: int) -> None:
        for i in range(rounds):
            model.true_cost(graph.nodes[(worker + i) % len(graph.nodes)])

    threads = [threading.Thread(target=target, args=(worker,))
               for worker in range(4)
               for target in (write_stats, churn_entries, read_costs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    counters = cache.counters
    assert sum(writes) == 4 * rounds and counters.admitted > 0
    assert graph.cost_epoch == \
        sum(writes) + counters.admitted + counters.evicted
    for node in graph.nodes:
        epoch, cost = node.cost_memo
        if epoch == graph.cost_epoch:
            assert cost == fresh_true_cost(graph, node)
        assert model.true_cost(node) == fresh_true_cost(graph, node)
    cache.check_invariants()
