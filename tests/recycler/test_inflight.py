"""Tests for the in-flight registry and prepare-time stall detection."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.columnar import Catalog, FLOAT64, INT64, Schema, Table
from repro.engine import execute_plan
from repro.expr import Cmp, Col, Lit
from repro.plan import q
from repro import Database
from repro.recycler import InFlightRegistry, Recycler, RecyclerConfig


@pytest.fixture
def catalog():
    catalog = Catalog()
    rng = np.random.default_rng(4)
    n = 20000
    catalog.register_table("t", Table(
        Table.from_rows(["g", "v"], [INT64, FLOAT64], []).schema,
        {"g": rng.integers(0, 8, n), "v": rng.uniform(0, 1, n)}))
    return catalog


def plan():
    return (q.scan("t", ["g", "v"])
             .filter(Cmp(">", Col("v"), Lit(0.5)))
             .aggregate(keys=["g"], aggs=[("sum", Col("v"), "s")])
             .build())


class TestRegistry:
    def test_register_release(self):
        class FakeNode:
            node_id = 7
        registry = InFlightRegistry()
        node = FakeNode()
        registry.register(node, "producer-a")
        assert registry.producer_of(node) == "producer-a"
        # first registration wins
        registry.register(node, "producer-b")
        assert registry.producer_of(node) == "producer-a"
        registry.release(node)
        assert registry.producer_of(node) is None

    def test_release_all_by_token(self):
        class FakeNode:
            def __init__(self, node_id):
                self.node_id = node_id
        registry = InFlightRegistry()
        a, b, c = FakeNode(1), FakeNode(2), FakeNode(3)
        registry.register(a, "x")
        registry.register(b, "x")
        registry.register(c, "y")
        assert sorted(registry.release_all("x")) == [1, 2]
        assert len(registry) == 1

    def test_release_is_owner_checked(self):
        class FakeNode:
            node_id = 3
        registry = InFlightRegistry()
        node = FakeNode()
        registry.register(node, "owner")
        # a non-owner (e.g. a racing duplicated completion) cannot evict
        # the live producer's registration
        assert not registry.release(node, "impostor")
        assert registry.producer_of(node) == "owner"
        assert registry.release(node, "owner")
        assert registry.producer_of(node) is None

    def test_cancelled_token_is_refused_and_woken(self):
        class FakeNode:
            def __init__(self, node_id):
                self.node_id = node_id
        registry = InFlightRegistry()
        produced, wanted = FakeNode(1), FakeNode(2)
        registry.register(produced, "victim")
        registry.cancel("victim")
        assert len(registry) == 0
        # a cancelled token can no longer register
        assert not registry.register(wanted, "victim")
        assert registry.producer_of(wanted) is None
        # and never blocks waiting on someone else's producer
        registry.register(wanted, "other")
        waited = registry.wait_for(wanted, "victim", timeout=5.0)
        assert waited < 1.0

    def test_only_a_release_or_a_cancel_wakes_waiters(self):
        """``notify_all`` runs when a registration is dropped or a token
        is newly cancelled — never for a finalize that releases nothing
        — and a waiter parked on a producer wakes on the release."""
        class FakeNode:
            node_id = 5
        registry = InFlightRegistry()
        node = FakeNode()
        wakeups = []
        notify_all = registry._cond.notify_all
        registry._cond.notify_all = \
            lambda: (wakeups.append(1), notify_all())
        registry.register(node, "producer")
        assert registry.release_all("bystander") == []
        assert registry.release(node, "impostor") is False
        assert wakeups == []
        parked = threading.Event()
        waited: list[float] = []
        wait = registry._cond.wait

        def parking_wait(timeout=None):
            parked.set()
            return wait(timeout)

        registry._cond.wait = parking_wait
        waiter = threading.Thread(target=lambda: waited.append(
            registry.wait_for(node, "consumer", timeout=30.0)))
        waiter.start()
        assert parked.wait(timeout=5)
        assert registry.release_all("producer") == [5]
        waiter.join(timeout=5)
        assert not waiter.is_alive() and waited[0] < 30.0
        assert wakeups == [1]
        # a cancel with nothing registered still wakes: the cancelled
        # token may be the one waiting; cancelling it again does not
        assert registry.cancel("consumer") == []
        assert wakeups == [1, 1]
        assert registry.cancel("consumer") == []
        assert wakeups == [1, 1]

    def test_active_nodes_snapshot(self):
        class FakeNode:
            def __init__(self, node_id):
                self.node_id = node_id
        registry = InFlightRegistry()
        registry.register(FakeNode(10), "a")
        registry.register(FakeNode(11), "b")
        assert registry.active_nodes() == {10, 11}


class TestPrepareStalls:
    def test_concurrent_preparation_detects_stall(self, catalog):
        recycler = Recycler(catalog, RecyclerConfig(mode="spec"))
        first = recycler.prepare(plan(), producer_token="stream-1")
        assert len(first.stores) >= 1
        # A second query prepared before the first finishes sees the
        # in-flight registration and reports the stall.
        second = recycler.prepare(plan(), producer_token="stream-2")
        assert second.stalls, "second query must stall on the producer"
        producers = {recycler.inflight.producer_of(node)
                     for node in second.stalls}
        assert producers == {"stream-1"}
        # the stalled query does NOT get its own store on the same node
        stalled_ids = {node.node_id for node in second.stalls}
        second_targets = {req.tag.node_id
                          for req in second.stores.values()}
        assert not stalled_ids & second_targets

    def test_same_token_does_not_stall_itself(self, catalog):
        recycler = Recycler(catalog, RecyclerConfig(mode="spec"))
        recycler.prepare(plan(), producer_token="s1")
        again = recycler.prepare(plan(), producer_token="s1")
        assert not again.stalls

    def test_finalize_releases_inflight(self, catalog):
        recycler = Recycler(catalog, RecyclerConfig(mode="spec"))
        prepared = recycler.prepare(plan(), producer_token="s1")
        result = execute_plan(prepared.executed_plan, catalog,
                              stores=prepared.stores)
        recycler.finalize(prepared, result.stats)
        assert len(recycler.inflight) == 0
        follow_up = recycler.prepare(plan(), producer_token="s2")
        assert not follow_up.stalls
        assert follow_up.reuses  # the result is cached now

    def test_root_hit_leaves_a_shared_tokens_registrations(self, catalog):
        """A full-plan hit registers nothing, so its finalize releases
        nothing — not even the registrations another query made under
        the same producer token, which its own finalize releases."""
        db = Database(RecyclerConfig(mode="spec"), catalog=catalog)
        recycler = db.recycler
        text = "SELECT g, sum(v) AS s FROM t WHERE v > 0.5 GROUP BY g"
        db.sql(text)
        db.sql(text)
        cold = recycler.prepare(
            q.scan("t", ["g", "v"]).filter(Cmp("<", Col("v"), Lit(0.25)))
             .aggregate(keys=["g"], aggs=[("max", Col("v"), "m")])
             .build(), producer_token="shared")
        assert cold.stores
        producing = recycler.inflight.active_nodes()
        hits = recycler.optimizer_summary()["root_hits"]
        result = recycler.service.execute(text, producer_token="shared")
        assert recycler.optimizer_summary()["root_hits"] == hits + 1
        assert result.record.num_reused == 1
        assert recycler.inflight.active_nodes() == producing
        stats = execute_plan(cold.executed_plan, catalog,
                             stores=cold.stores).stats
        recycler.finalize(cold, stats)
        assert len(recycler.inflight) == 0
        db.close()

    def test_query_record_written(self, catalog):
        recycler = Recycler(catalog, RecyclerConfig(mode="spec"))
        records = [recycler.execute(plan(), label=label).record
                   for label in ("alpha", "beta")]
        assert [r.label for r in records] == ["alpha", "beta"]
        assert records[1].num_reused == 1
        assert records[0].matching_seconds > 0
        assert recycler.summary()["queries"] == 2


class TestAbandonedConsumer:
    """Regression: abandoning a *waiting* consumer whose producer already
    finalized must not leave a stale ``InFlightRegistry`` entry.

    The consumer wakes from its stall only after the cancel landed; it
    then plans stores for a node the producer left unmaterialized
    (speculation aborted) — without the cancelled-token check it would
    register itself as producer, and since an abandoned query never
    finalizes, nothing would ever release that entry: every later query
    matching the node would stall against a ghost until timeout.
    """

    def _recycler(self, catalog):
        # Astronomic speculation_min_cost: the producer's speculative
        # store always aborts, leaving the node seen-but-unmaterialized
        # so the consumer's rewrite wants a history store on it.
        return Recycler(catalog, RecyclerConfig(
            mode="spec", speculation_min_cost=1e18,
            inflight_wait_timeout=30.0))

    def test_cancelled_consumer_registers_nothing(self, catalog):
        recycler = self._recycler(catalog)
        # Producer runs the query; its speculation aborts.
        recycler.execute(plan(), producer_token="producer")
        node_count = len(recycler.graph.nodes)
        assert len(recycler.cache) == 0
        assert len(recycler.inflight) == 0
        # The consumer was abandoned while stalled; by the time its
        # prepare resumes, the producer has finalized.  Its store
        # planning must be refused outright.
        recycler.cancel("consumer")
        prepared = recycler.prepare(plan(), producer_token="consumer",
                                    block_on_inflight=True)
        assert not prepared.stores, "abandoned query planned a store"
        assert len(recycler.inflight) == 0, "stale in-flight entry"
        # The graph node stays reusable: a healthy query claims it,
        # produces it, and later queries reuse it — nothing is wedged.
        result = recycler.execute(plan(), producer_token="healthy")
        assert result.record is not None
        assert len(recycler.graph.nodes) == node_count
        follow_up = recycler.prepare(plan(), producer_token="later")
        assert follow_up.reuses or not follow_up.stalls

    def test_cancel_wakes_blocked_consumer(self, catalog):
        recycler = self._recycler(catalog)
        producer = recycler.prepare(plan(), producer_token="producer")
        assert len(recycler.inflight) == 1
        entered = threading.Event()
        prepared_box: list = []

        def consume():
            entered.set()
            prepared_box.append(recycler.prepare(
                plan(), producer_token="consumer",
                block_on_inflight=True))

        thread = threading.Thread(target=consume)
        thread.start()
        assert entered.wait(timeout=5)
        # Abandon the waiting consumer from this thread; it must wake
        # well before the 30 s producer timeout.
        recycler.cancel("consumer")
        thread.join(timeout=5)
        assert not thread.is_alive(), "cancel did not wake the waiter"
        prepared = prepared_box[0]
        assert not prepared.stores
        # Only the producer's own registration remains, and its
        # finalize clears it.
        assert recycler.inflight.active_nodes() <= {
            node.node_id for node in recycler.graph.nodes}
        recycler.abandon(producer)
        assert len(recycler.inflight) == 0


class UnwalkedNodes(list):
    """A ``graph.nodes`` that fails the test when walked."""

    def __iter__(self):
        raise AssertionError("walked every graph node")


class TestInvalidationReadsTheRegistry:
    """An append or DDL aborts the in-flight producers of the changed
    table's nodes, found in the registry: the graph is not walked."""

    def test_invalidation_without_producers_walks_no_node(self, catalog):
        db = Database(RecyclerConfig(mode="spec"), catalog=catalog)
        text = "SELECT g, sum(v) AS s FROM t WHERE v > 0.5 GROUP BY g"
        db.sql(text)
        db.sql(text)
        recycler = db.recycler
        assert len(recycler.cache) > 0
        assert len(recycler.inflight) == 0
        recycler.graph.nodes = UnwalkedNodes(recycler.graph.nodes)
        db.append_rows("t", [(1, 0.75)])
        db.register_table("t", catalog.snapshot().table_entry("t").table)
        db.register_function("f", lambda: None, Schema(["x"], [INT64]))
        assert recycler.ddl_stats["invalidations"] == 3
        assert recycler.ddl_stats["entries_evicted"] > 0
        assert recycler.ddl_stats["inflight_aborted"] == 0
        db.close()

    def test_invalidation_aborts_only_dependent_producers(self, catalog):
        catalog.register_table("u", catalog.snapshot().table_entry("t")
                               .table)
        recycler = Recycler(catalog, RecyclerConfig(mode="spec"))
        over_t = recycler.prepare(plan(), producer_token="over-t")
        over_u = recycler.prepare(
            q.scan("u", ["g", "v"]).filter(Cmp(">", Col("v"), Lit(0.5)))
             .aggregate(keys=["g"], aggs=[("sum", Col("v"), "s")])
             .build(), producer_token="over-u")
        producing_t = recycler.inflight.active_nodes()
        assert over_t.stores and over_u.stores
        recycler.invalidate_table("u")
        assert recycler.ddl_stats["inflight_aborted"] == 1
        assert {token for _, token in recycler.inflight.producers()} == \
            {"over-t"}
        assert recycler.inflight.active_nodes() < producing_t
        recycler.abandon(over_t)
        recycler.abandon(over_u)
        assert len(recycler.inflight) == 0
