"""Tests for the recycler cache: groups, admission, replacement, eviction."""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.columnar import INT64, Table
from repro.expr import Cmp, Col, Lit
from repro.plan import q
from repro.recycler import (BenefitModel, RecyclerCache, RecyclerGraph,
                            match_tree)


def table_of_bytes(nbytes: int) -> Table:
    rows = max(nbytes // 8, 1)
    return Table(Table.from_rows(["x"], [INT64], []).schema,
                 {"x": np.arange(rows, dtype=np.int64)})


@pytest.fixture
def env(sales_catalog):
    graph = RecyclerGraph(sales_catalog, alpha=1.0)
    model = BenefitModel(graph)

    counter = [0]

    def make_node(refs: float, bcost: float):
        counter[0] += 1
        plan = (q.scan("sales", ["quantity"])
                 .filter(Cmp(">", Col("quantity"), Lit(counter[0])))
                 .build())
        match = match_tree(plan, graph, sales_catalog,
                           query_id=counter[0])
        node = match.of(plan).graph_node
        node.refs_raw = refs
        node.bcost = bcost
        node.exec_count = 1
        return node

    return graph, model, make_node


class TestGrouping:
    def test_group_of_is_log2(self):
        assert RecyclerCache.group_of(1) == 1
        assert RecyclerCache.group_of(1024) == 11
        assert RecyclerCache.group_of(1025) == 11
        assert RecyclerCache.group_of(2048) == 12

    def test_entries_sorted_by_benefit_within_group(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=None)
        for refs in (5.0, 1.0, 3.0):
            node = make_node(refs=refs, bcost=1000.0)
            assert cache.admit(node, table_of_bytes(1000))
        cache.check_invariants()
        group = cache._groups[RecyclerCache.group_of(1000)]
        assert [e.benefit for e in group] == sorted(
            e.benefit for e in group)


class TestAdmission:
    def test_admits_while_space(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=10000)
        for _ in range(3):
            node = make_node(refs=1.0, bcost=100.0)
            assert cache.admit(node, table_of_bytes(3000))
        assert cache.used == 3 * 3000 - 3 * 3000 % 8 or cache.used > 0
        cache.check_invariants()

    def test_rejects_oversized_result(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=1000)
        node = make_node(refs=10.0, bcost=1e6)
        assert not cache.admit(node, table_of_bytes(5000))
        assert cache.counters.rejected == 1

    def test_duplicate_admit_is_noop(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=None)
        node = make_node(refs=1.0, bcost=100.0)
        table = table_of_bytes(100)
        assert cache.admit(node, table)
        assert cache.admit(node, table)
        assert len(cache) == 1

    def test_version_gate_rejects_stale_snapshot(self, env):
        """A result tagged with versions the live catalog has moved past
        is refused and counted as ``version_rejected``, not ``rejected``;
        one tagged with the live versions is admitted."""
        graph, model, make_node = env
        live = {"sales": 2}
        cache = RecyclerCache(model, capacity=10000,
                              live_versions=lambda t, f: (dict(live), {}))
        stale = make_node(refs=10.0, bcost=1e6)
        assert not cache.admit(stale, table_of_bytes(100),
                               table_versions={"sales": 1})
        assert stale.entry is None
        assert (cache.counters.version_rejected,
                cache.counters.rejected) == (1, 0)
        fresh = make_node(refs=1.0, bcost=100.0)
        assert cache.admit(fresh, table_of_bytes(100),
                           table_versions={"sales": 2})
        assert fresh.entry.table_versions == {"sales": 2}
        assert cache.used == fresh.entry.size
        cache.check_invariants()

    def test_admission_checks_run_in_order(self, env):
        """Already cached wins over the version gate, and the version
        gate over the space check: a stale result larger than the whole
        cache counts ``version_rejected`` only."""
        graph, model, make_node = env
        live = {"sales": 1}
        cache = RecyclerCache(model, capacity=1000,
                              live_versions=lambda t, f: (dict(live), {}))
        cached = make_node(refs=1.0, bcost=100.0)
        assert cache.admit(cached, table_of_bytes(100),
                           table_versions={"sales": 1})
        live["sales"] = 2
        assert cache.admit(cached, table_of_bytes(100),
                           table_versions={"sales": 1})
        assert cache.counters.version_rejected == 0
        oversized = make_node(refs=10.0, bcost=1e6)
        assert not cache.admit(oversized, table_of_bytes(5000),
                               table_versions={"sales": 1})
        assert (cache.counters.version_rejected,
                cache.counters.rejected) == (1, 0)
        assert len(cache) == 1
        cache.check_invariants()


class TestReplacement:
    def test_evicts_lower_benefit_set(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=2048)
        low = make_node(refs=1.0, bcost=100.0)      # low benefit
        assert cache.admit(low, table_of_bytes(1500))
        high = make_node(refs=50.0, bcost=50000.0)  # high benefit
        assert cache.admit(high, table_of_bytes(1500))
        assert low.entry is None          # evicted
        assert high.entry is not None
        assert cache.counters.evicted == 1
        cache.check_invariants()

    def test_keeps_higher_benefit_residents(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=2048)
        resident = make_node(refs=50.0, bcost=50000.0)
        assert cache.admit(resident, table_of_bytes(1500))
        newcomer = make_node(refs=1.0, bcost=100.0)
        assert not cache.admit(newcomer, table_of_bytes(1500))
        assert resident.entry is not None
        cache.check_invariants()

    def test_no_eviction_while_space_lasts(self, env):
        """A newcomer that fits in the free space is admitted beside a
        lower-benefit resident of its size group, which stays."""
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=4096)
        low = make_node(refs=0.1, bcost=10.0)
        assert cache.admit(low, table_of_bytes(1500))
        high = make_node(refs=50.0, bcost=50000.0)
        assert cache.admit(high, table_of_bytes(1500))
        assert low.entry is not None and high.entry is not None
        assert cache.counters.evicted == 0
        assert cache.used == low.entry.size + high.entry.size
        cache.check_invariants()

    def test_replacement_only_scans_same_group_by_default(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=4096)
        # Fill the cache with small (different-group) low-benefit entries.
        for _ in range(8):
            node = make_node(refs=0.1, bcost=10.0)
            cache.admit(node, table_of_bytes(500))
        big = make_node(refs=100.0, bcost=100000.0)
        # Big result's own (empty) group cannot free enough space.
        assert not cache.admit(big, table_of_bytes(3000))

    def test_would_admit_is_side_effect_free(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=2048)
        low = make_node(refs=1.0, bcost=100.0)
        cache.admit(low, table_of_bytes(1500))
        before = len(cache)
        assert cache.would_admit(benefit=10.0, size=1500)
        assert not cache.would_admit(benefit=1e-9, size=1500)
        assert len(cache) == before
        assert low.entry is not None


class TestEvictionAndMaintenance:
    def test_flush_evicts_everything(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=None)
        for _ in range(4):
            cache.admit(make_node(refs=1.0, bcost=100.0),
                        table_of_bytes(100))
        assert cache.flush() == 4
        assert len(cache) == 0
        assert cache.used == 0
        cache.check_invariants()

    def test_invalidate_table(self, env, sales_catalog):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=None)
        sales_node = make_node(refs=1.0, bcost=100.0)
        cache.admit(sales_node, table_of_bytes(100))
        stores_plan = q.scan("stores", ["city"]).build()
        match = match_tree(stores_plan, graph, sales_catalog, query_id=99)
        stores_node = match.of(stores_plan).graph_node
        stores_node.bcost, stores_node.exec_count = 10.0, 1
        cache.admit(stores_node, table_of_bytes(100))
        assert cache.invalidate_table("sales") == 1
        assert sales_node.entry is None
        assert stores_node.entry is not None

    def test_note_reuse_updates_counters(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=None)
        node = make_node(refs=1.0, bcost=100.0)
        cache.admit(node, table_of_bytes(100))
        cache.note_reuse(node.entry)
        assert cache.counters.reuses == 1
        assert node.entry.reuse_count == 1

    def test_refresh_repositions_entry(self, env):
        graph, model, make_node = env
        cache = RecyclerCache(model, capacity=None)
        a = make_node(refs=1.0, bcost=1000.0)
        b = make_node(refs=5.0, bcost=1000.0)
        cache.admit(a, table_of_bytes(1000))
        cache.admit(b, table_of_bytes(1000))
        group = cache._groups[RecyclerCache.group_of(1000)]
        assert group[0].node is a
        graph.add_refs(a, 100.0)
        cache.refresh(a)
        group = cache._groups[RecyclerCache.group_of(1000)]
        assert group[-1].node is a
        cache.check_invariants()


class TestConcurrentAdmission:
    def test_threads_admit_under_pressure(self, env):
        """Eight threads released together admit distinct nodes of mixed
        sizes into a cache that holds about a quarter of them, with
        reuses, evictions, republications and refreshes of every entry
        between: the byte ledger and the size groups are consistent
        whenever a thread can take the cache's lock, and at the end."""
        graph, model, make_node = env
        threads, per_thread = 8, 24
        sizes = (700, 1000, 1600, 2500, 4000, 6000)
        work = [[(make_node(refs=rng.uniform(0.5, 20.0),
                            bcost=rng.uniform(100.0, 1e5)),
                  rng.choice(sizes))
                 for _ in range(per_thread)]
                for rng in (random.Random(seed) for seed in range(threads))]
        total = sum(size for jobs in work for _, size in jobs)
        cache = RecyclerCache(model, capacity=total // 4)
        barrier = threading.Barrier(threads)
        errors: list[Exception] = []

        def run(index: int) -> None:
            rng = random.Random(100 + index)
            try:
                barrier.wait(timeout=10)
                for step, (node, size) in enumerate(work[index]):
                    cache.admit(node, table_of_bytes(size))
                    entry = node.entry
                    if entry is not None:
                        cache.note_reuse(entry)
                        if rng.random() < 0.2:
                            cache.republish(entry,
                                            table_of_bytes(size + 512),
                                            {}, {}, {})
                        elif rng.random() < 0.2:
                            cache.evict(entry)
                    if step % 8 == 7:
                        for cached in cache.entries():
                            cache.refresh(cached.node)
                    cache.check_invariants()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=run, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors, errors

        cache.check_invariants()
        entries = cache.entries()
        assert cache.used == sum(e.size for e in entries) <= cache.capacity
        counters = cache.counters
        assert counters.admitted - counters.evicted == len(cache)
        # the run reached every path it means to exercise
        assert counters.rejected and counters.evicted and counters.extended
        for jobs in work:
            for node, _ in jobs:
                entry = node.entry
                assert entry is None or any(
                    entry is resident for resident in
                    cache._groups[RecyclerCache.group_of(entry.size)])
