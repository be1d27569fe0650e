"""Property-based tests: graph truncation under insert/match traffic.

Satellite of the striped-concurrency PR: truncation runs from a
background maintenance thread now, so its contract is load-bearing —

* a **pinned** node (in-flight producer) is never evicted,
* a **materialized** node is never evicted,
* structural invariants (parent/leaf indexes, liveness set) hold after
  any interleaving of match/insert, pinning, aging, and truncation,
* recycler-level benefit/cache accounting stays consistent when
  truncation interleaves with real executions,
* the O(1) gate in front of a maintenance sweep
  (``RecyclerGraph.truncate_due``) only ever skips a sweep that would
  have removed nothing: a gated ``Recycler.truncate_idle`` removes
  exactly what an ungated ``RecyclerGraph.truncate`` removes, also
  after the cache evicted an old materialized node.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.columnar import Catalog, FLOAT64, INT64, Table
from repro.expr import Cmp, Col, Lit
from repro.plan import q
from repro.recycler import (InFlightRegistry, Recycler, RecyclerConfig,
                            RecyclerGraph, match_tree)
from twin_replay import rule_survivors


def build_catalog(n: int = 400, seed: int = 11) -> Catalog:
    catalog = Catalog()
    rng = np.random.default_rng(seed)
    catalog.register_table("t", Table(
        Table.from_rows(["g", "v"], [INT64, FLOAT64], []).schema,
        {"g": rng.integers(0, 5, n), "v": rng.uniform(0, 1, n)}))
    return catalog


def family_plan(family: int):
    """One of ten distinct plan shapes sharing the same scan leaf."""
    return (q.scan("t", ["g", "v"])
             .filter(Cmp(">", Col("v"), Lit(family / 10.0)))
             .aggregate(keys=["g"], aggs=[("sum", Col("v"), "s")])
             .build())


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("match"), st.integers(0, 9)),
        st.tuples(st.just("pin"), st.integers(0, 9)),
        st.tuples(st.just("unpin"), st.integers(0, 9)),
        st.tuples(st.just("tick"), st.integers(1, 5)),
        st.tuples(st.just("truncate"), st.integers(0, 4)),
    ),
    min_size=1, max_size=60,
)


class TestGraphTruncateProperties:
    @settings(max_examples=30, deadline=None)
    @given(ops=OPS)
    def test_pinned_nodes_survive_any_interleaving(self, ops):
        catalog = build_catalog()
        graph = RecyclerGraph(catalog)
        registry = InFlightRegistry()
        roots: dict[int, object] = {}   # family -> last matched root node
        query_id = 0

        for op, arg in ops:
            if op == "match":
                query_id += 1
                graph.tick()
                plan = family_plan(arg)
                result = match_tree(plan, graph, catalog, query_id)
                roots[arg] = result.of(plan).graph_node
            elif op == "pin" and arg in roots:
                # mirror store planning (rewriter.py): a reference that
                # went stale — the node was truncated after matching —
                # is skipped via ``is_live``, never registered; pinning
                # cannot resurrect an evicted node
                if graph.is_live(roots[arg]):
                    registry.register(roots[arg], f"producer-{arg}")
            elif op == "unpin" and arg in roots:
                registry.release(roots[arg], f"producer-{arg}")
            elif op == "tick":
                for _ in range(arg):
                    graph.tick()
            elif op == "truncate":
                pinned = registry.active_nodes()
                expected = rule_survivors(graph, arg, pinned)
                graph.truncate(min_idle_events=arg, pinned=pinned)
                alive = {node.node_id for node in graph.nodes}
                assert alive == expected
                assert pinned <= alive, "truncation evicted a pinned node"
                graph.check_invariants()
                assert alive == {
                    node.node_id for node in graph.nodes
                    if graph.is_live(node)}

        graph.check_invariants()
        # surviving families stay exactly matchable; truncated ones
        # re-insert cleanly
        for family in range(10):
            query_id += 1
            result = match_tree(family_plan(family), graph, catalog,
                                query_id)
            assert result.inserted_count + result.matched_count >= 3
        graph.check_invariants()

    @settings(max_examples=15, deadline=None)
    @given(
        executes=st.lists(st.integers(0, 7), min_size=1, max_size=12),
        truncate_every=st.integers(1, 4),
        min_idle=st.integers(0, 3),
    )
    def test_recycler_accounting_stays_consistent(self, executes,
                                                  truncate_every,
                                                  min_idle):
        catalog = build_catalog()
        recycler = Recycler(catalog, RecyclerConfig(
            mode="spec", cache_capacity=512 * 1024))
        for step, family in enumerate(executes, start=1):
            recycler.execute(family_plan(family))
            if step % truncate_every == 0:
                recycler.truncate_idle(min_idle_events=min_idle)
        recycler.truncate_idle(min_idle_events=min_idle)

        recycler.graph.check_invariants()
        recycler.cache.check_invariants()
        alive = {node.node_id for node in recycler.graph.nodes}
        for entry in recycler.cache.entries():
            assert entry.node.is_materialized
            assert entry.node.node_id in alive, \
                "cache entry for a truncated node"
        # benefit accounting: hR is finite and non-negative everywhere
        for node in recycler.graph.nodes:
            refs = recycler.graph.effective_refs(node)
            assert refs >= 0.0
            assert np.isfinite(refs)
        # cached results still answer queries byte-identically
        for family in set(executes):
            reference = Recycler(catalog, RecyclerConfig(mode="off"))
            expected = reference.execute(family_plan(family))
            got = recycler.execute(family_plan(family))
            assert got.table.to_rows() == expected.table.to_rows()


GATE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("execute"), st.integers(0, 9)),
        st.tuples(st.just("tick"), st.integers(1, 6)),
        st.tuples(st.just("evict_oldest"), st.just(0)),
        st.tuples(st.just("truncate"), st.integers(0, 6)),
    ),
    min_size=1, max_size=50,
)


def node_ids(recycler: Recycler) -> list[int]:
    return [node.node_id for node in recycler.graph.nodes]


class TestTruncateGate:
    @settings(max_examples=40, deadline=None)
    @given(ops=GATE_OPS)
    # a sweep keeps an old cached result; the cache then evicts it, and
    # only its old stamp — which the floor counted — opens the gate
    @example(ops=[("execute", 0), ("execute", 1), ("tick", 6),
                  ("truncate", 2), ("evict_oldest", 0), ("truncate", 2)])
    def test_gated_sweep_removes_what_an_ungated_one_would(self, ops):
        """Twin recyclers take the same ops; at every truncation one
        goes through the gate and the other sweeps unconditionally.
        Their graphs never differ, and both are what the rule keeps."""
        catalog = build_catalog()
        gated, ungated = (
            Recycler(catalog, RecyclerConfig(mode="spec",
                                             cache_capacity=64 * 1024))
            for _ in range(2))
        for op, arg in ops:
            if op == "execute":
                for recycler in (gated, ungated):
                    recycler.execute(family_plan(arg))
            elif op == "tick":
                for recycler in (gated, ungated):
                    for _ in range(arg):
                        recycler.graph.tick()
            elif op == "evict_oldest":
                # the materialized node accessed longest ago: once it
                # leaves the cache only its old stamp holds it
                for recycler in (gated, ungated):
                    entries = recycler.cache.entries()
                    if entries:
                        oldest = min(entries, key=lambda e: (
                            e.node.last_access_event, e.node.node_id))
                        recycler.cache.evict(oldest)
            else:
                skipped = not gated.graph.truncate_due(arg)
                survivors = rule_survivors(ungated.graph, arg,
                                           ungated.inflight.active_nodes())
                removed = gated.truncate_idle(min_idle_events=arg)
                expected = ungated.graph.truncate(
                    arg, pinned=ungated.inflight.active_nodes())
                assert removed == expected
                if skipped:
                    assert expected == 0, "the gate skipped a sweep " \
                        "that removes nodes"
                assert set(node_ids(ungated)) == survivors
            assert node_ids(gated) == node_ids(ungated)
        gated.graph.check_invariants()
        gated.cache.check_invariants()


class TestTruncateUnderConcurrentMatch:
    def test_insert_over_a_truncated_child_rematches(self, monkeypatch):
        """The race the threaded test below hunts, made deterministic: a
        truncation removes the scan leaf between its match and the
        insertion of the filter over it.  The insertion conflicts, and
        the children are matched again — no node is inserted over a
        removed child."""
        catalog = build_catalog()
        graph = RecyclerGraph(catalog)
        graph.tick()
        match_tree(family_plan(0), graph, catalog, 1)
        insert = RecyclerGraph.insert_node
        truncated: list[int] = []

        def truncate_first(self, query_node, keys, graph_children,
                           *args, **kwargs):
            if graph_children and not truncated:
                self.tick()
                truncated.append(self.truncate(0))
            return insert(self, query_node, keys, graph_children,
                          *args, **kwargs)

        monkeypatch.setattr(RecyclerGraph, "insert_node", truncate_first)
        graph.tick()
        plan = family_plan(1)
        result = match_tree(plan, graph, catalog, 2)
        assert truncated == [3]     # family 0's subtree, the leaf with it
        assert result.conflicts == 1
        assert all(graph.is_live(result.of(node).graph_node)
                   for node in plan.walk())
        graph.check_invariants()

    def test_threaded_inserts_vs_truncation(self):
        """Real threads: matching/inserting while a maintenance thread
        truncates must leave a duplicate-free, invariant-clean graph."""
        catalog = build_catalog()
        recycler = Recycler(catalog, RecyclerConfig(mode="spec"))
        errors: list[BaseException] = []
        stop = threading.Event()
        barrier = threading.Barrier(5)

        def worker(worker_id: int) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(25):
                    recycler.execute(
                        family_plan((worker_id * 3 + i) % 10),
                        producer_token=("w", worker_id, i))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def truncator() -> None:
            try:
                barrier.wait(timeout=10)
                while not stop.is_set():
                    recycler.truncate_idle(min_idle_events=1)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        chaos = threading.Thread(target=truncator)
        # switch threads often, so gated sweeps and their floor land
        # between matching's clock reads and stamps
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            chaos.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            stop.set()
            chaos.join(timeout=10)
            sys.setswitchinterval(interval)

        assert not errors, errors
        assert not any(t.is_alive() for t in threads + [chaos])
        # one last sweep leaves what the rule keeps
        pinned = recycler.inflight.active_nodes()
        survivors = rule_survivors(recycler.graph, 1, pinned)
        recycler.graph.truncate(1, pinned=pinned)
        assert {node.node_id for node in recycler.graph.nodes} == survivors
        recycler.graph.check_invariants()
        recycler.cache.check_invariants()
        assert len(recycler.inflight) == 0
        seen: set[tuple] = set()
        for node in recycler.graph.nodes:
            key = (node.op_name, node.params,
                   tuple(c.node_id for c in node.children))
            assert key not in seen, f"duplicate graph node {node!r}"
            seen.add(key)
        # results remain byte-identical to a recycling-free run
        reference = Recycler(catalog, RecyclerConfig(mode="off"))
        for family in range(10):
            expected = reference.execute(family_plan(family))
            got = recycler.execute(family_plan(family))
            assert got.table.to_rows() == expected.table.to_rows()
