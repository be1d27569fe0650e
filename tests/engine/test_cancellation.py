"""Cooperative cancellation at the engine layer.

Deterministic, single-threaded: a counting predicate trips the query's
:class:`~repro.engine.cancellation.CancellationToken` after a chosen
number of batches, so the tests can assert the *exact* batch the abort
lands on — in particular that a cancelled run executes strictly fewer
batches than the uncancelled run (the PR's acceptance criterion).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.columnar import FLOAT64, INT64, Catalog, Schema, Table
from repro.columnar.batch import VECTOR_SIZE
from repro.engine import (CancellationToken, MODE_MATERIALIZE,
                          StoreRequest, execute_plan)
from repro.errors import QueryCancelled, QueryTimeout
from repro.plan.logical import Join, Limit, Scan, Select, Sort

#: 5000-row ``wide`` fixture table / 250 = 20 batches per full run
VECTOR = 250
FULL_BATCHES = 20


class CountingPredicate:
    """Always-true filter predicate that counts per-batch evaluations
    and can trip a cancellation token at a chosen call."""

    def __init__(self, token: CancellationToken | None = None,
                 cancel_at: int | None = None,
                 sleep: float = 0.0) -> None:
        self.calls = 0
        self.token = token
        self.cancel_at = cancel_at
        self.sleep = sleep

    def eval(self, batch) -> np.ndarray:
        self.calls += 1
        if self.sleep:
            time.sleep(self.sleep)
        if self.cancel_at is not None and self.calls >= self.cancel_at:
            self.token.cancel()
        return np.ones(len(batch), dtype=bool)


def filtered_scan(predicate) -> Select:
    return Select(Scan("wide", ["k", "grp", "val"]), predicate)


class TestCancellationToken:
    def test_cancel_trips_check(self):
        token = CancellationToken()
        token.check()  # live token passes
        assert not token.aborted
        token.cancel()
        assert token.cancelled and token.aborted
        with pytest.raises(QueryCancelled):
            token.check()

    def test_deadline_expiry(self):
        token = CancellationToken(timeout=0.0)
        assert token.expired and token.aborted and not token.cancelled
        with pytest.raises(QueryTimeout):
            token.check()
        assert CancellationToken(timeout=60.0).remaining() > 0

    def test_earlier_of_deadline_and_timeout_wins(self):
        past = time.monotonic() - 1.0
        assert CancellationToken(deadline=past, timeout=60.0).expired
        assert CancellationToken(deadline=time.monotonic() + 60.0,
                                 timeout=0.0).expired

    def test_bound_timeout(self):
        assert CancellationToken().bound_timeout(5.0) == 5.0
        assert CancellationToken().bound_timeout(None) is None
        token = CancellationToken(timeout=1.0)
        assert token.bound_timeout(None) <= 1.0
        assert token.bound_timeout(30.0) <= 1.0
        assert token.bound_timeout(0.1) <= 0.1


class TestExecutorAbort:
    def test_cancel_stops_within_one_batch(self, wide_catalog):
        # uncancelled baseline: every batch is evaluated
        baseline = CountingPredicate()
        result = execute_plan(filtered_scan(baseline), wide_catalog,
                              vector_size=VECTOR)
        assert baseline.calls == FULL_BATCHES
        assert result.table.num_rows == 5000

        token = CancellationToken()
        predicate = CountingPredicate(token, cancel_at=3)
        with pytest.raises(QueryCancelled):
            execute_plan(filtered_scan(predicate), wide_catalog,
                         vector_size=VECTOR, token=token)
        # the batch that tripped the token was the last one executed:
        # strictly fewer batches than the uncancelled run
        assert predicate.calls == 3
        assert predicate.calls < baseline.calls

    def test_cancel_lands_within_one_vector_at_the_engine_size(self):
        # No ``vector_size=``: the size every Database query runs at.
        # A larger constant must not widen the cancellation window
        # beyond one vector, nor let the aborted run feed the cache.
        vectors = 4
        rows = (vectors - 1) * VECTOR_SIZE + 7
        catalog = Catalog()
        catalog.register_table("wide", Table(
            Schema(["k", "grp", "val"], [INT64, INT64, FLOAT64]),
            {"k": np.arange(rows), "grp": np.arange(rows) % 25,
             "val": np.linspace(0.0, 1.0, rows)}))
        baseline = CountingPredicate()
        assert execute_plan(filtered_scan(baseline),
                            catalog).table.num_rows == rows
        assert baseline.calls == vectors

        token = CancellationToken()
        predicate = CountingPredicate(token, cancel_at=2)  # mid-scan
        plan = filtered_scan(predicate)
        completed: list[object] = []
        aborted: list[object] = []
        request = StoreRequest(
            mode=MODE_MATERIALIZE, tag="node",
            on_complete=lambda table, stats, tag: completed.append(tag),
            on_abort=aborted.append)
        with pytest.raises(QueryCancelled):
            execute_plan(plan, catalog, stores={id(plan): request},
                         token=token)
        # the vector that tripped the token was the last one evaluated
        assert predicate.calls == 2 < vectors
        assert completed == []
        assert aborted == ["node"]

    def test_cancel_mid_blocking_sort(self, wide_catalog):
        token = CancellationToken()
        predicate = CountingPredicate(token, cancel_at=4)
        plan = Sort(filtered_scan(predicate), [("val", True)])
        with pytest.raises(QueryCancelled):
            execute_plan(plan, wide_catalog, vector_size=VECTOR,
                         token=token)
        assert predicate.calls == 4 < FULL_BATCHES

    def test_cancel_mid_join_build(self, wide_catalog):
        token = CancellationToken()
        predicate = CountingPredicate(token, cancel_at=2)
        plan = Join(Scan("wide", ["k"]),
                    Select(Scan("wide", ["grp", "val"]), predicate),
                    "inner", ["k"], ["grp"])
        with pytest.raises(QueryCancelled):
            execute_plan(plan, wide_catalog, vector_size=VECTOR,
                         token=token)
        # the build side aborts before the probe side is ever pulled
        assert predicate.calls == 2 < FULL_BATCHES

    def test_expired_deadline_stops_before_first_batch(self, wide_catalog):
        predicate = CountingPredicate()
        with pytest.raises(QueryTimeout):
            execute_plan(filtered_scan(predicate), wide_catalog,
                         vector_size=VECTOR,
                         token=CancellationToken(timeout=0.0))
        assert predicate.calls == 0 < FULL_BATCHES

    def test_deadline_expires_mid_run(self, wide_catalog):
        # ~20 ms per batch against a 50 ms deadline: expires after a few
        # batches, far from the 20-batch full run even under CI jitter
        predicate = CountingPredicate(sleep=0.02)
        with pytest.raises(QueryTimeout):
            execute_plan(filtered_scan(predicate), wide_catalog,
                         vector_size=VECTOR,
                         token=CancellationToken(timeout=0.05))
        assert 0 < predicate.calls < FULL_BATCHES


class TestStoreAbort:
    """An aborted producer must never publish, and must release its
    in-flight registration via ``on_abort``."""

    def run_with_store(self, catalog, predicate, token=None):
        completed: list[object] = []
        aborted: list[object] = []
        plan = filtered_scan(predicate)
        request = StoreRequest(
            mode=MODE_MATERIALIZE, tag="node",
            on_complete=lambda table, stats, tag: completed.append(
                (tag, table.num_rows)),
            on_abort=aborted.append)
        stores = {id(plan): request}
        result = execute_plan(plan, catalog, stores=stores,
                              vector_size=VECTOR, token=token)
        return result, completed, aborted

    def test_completed_store_publishes_once(self, wide_catalog):
        _, completed, aborted = self.run_with_store(
            wide_catalog, CountingPredicate())
        assert completed == [("node", 5000)]
        assert aborted == []

    def test_cancelled_store_aborts_instead_of_draining(self, wide_catalog):
        token = CancellationToken()
        predicate = CountingPredicate(token, cancel_at=3)
        with pytest.raises(QueryCancelled):
            self.run_with_store(wide_catalog, predicate, token=token)
        # teardown did NOT drain the child to feed the cache
        assert predicate.calls == 3 < FULL_BATCHES

    def test_abort_during_open_still_fires_on_abort(self, wide_catalog):
        # a deadline can expire before the first batch (e.g. while a
        # table function runs in _open): the tree must still be closed
        # so the store releases its registration
        completed: list[object] = []
        aborted: list[object] = []
        plan = filtered_scan(CountingPredicate())
        request = StoreRequest(
            mode=MODE_MATERIALIZE, tag="node",
            on_complete=lambda table, stats, tag: completed.append(tag),
            on_abort=aborted.append)
        with pytest.raises(QueryTimeout):
            execute_plan(plan, wide_catalog, stores={id(plan): request},
                         vector_size=VECTOR,
                         token=CancellationToken(timeout=0.0))
        assert completed == []
        assert aborted == ["node"]

    def test_cancelled_store_fires_on_abort(self, wide_catalog):
        token = CancellationToken()
        predicate = CountingPredicate(token, cancel_at=3)
        completed: list[object] = []
        aborted: list[object] = []
        plan = filtered_scan(predicate)
        request = StoreRequest(
            mode=MODE_MATERIALIZE, tag="node",
            on_complete=lambda table, stats, tag: completed.append(tag),
            on_abort=aborted.append)
        with pytest.raises(QueryCancelled):
            execute_plan(plan, wide_catalog, stores={id(plan): request},
                         vector_size=VECTOR, token=token)
        assert completed == []
        assert aborted == ["node"]

    def test_abort_during_close_drain_keeps_finished_result(
            self, wide_catalog):
        # a Limit stops pulling after one batch; the store below it
        # then drains its child at close time to feed the cache.  A
        # token tripped during that drain must abort the *store*, not
        # the query — the answer is already complete.
        token = CancellationToken()
        predicate = CountingPredicate(token, cancel_at=2)
        completed: list[object] = []
        aborted: list[object] = []
        inner = filtered_scan(predicate)
        request = StoreRequest(
            mode=MODE_MATERIALIZE, tag="node",
            on_complete=lambda table, stats, tag: completed.append(tag),
            on_abort=aborted.append)
        plan = Limit(inner, limit=VECTOR)
        result = execute_plan(plan, wide_catalog,
                              stores={id(inner): request},
                              vector_size=VECTOR, token=token)
        # the query's own result survived the mid-drain abort...
        assert result.table.num_rows == VECTOR
        # ...while the store gave up instead of publishing a partial
        # (or deadline-busting) materialization
        assert completed == []
        assert aborted == ["node"]
