"""State equivalence of the root-hit fast path (``Recycler.prepare``).

A repeated statement whose root result is cached skips fingerprinting,
matching, reference bookkeeping, stall collection, reuse substitution
and store planning.  The claim under test: it skips *work*, not *state
changes* — after any stream, a database that took the fast path and one
that never could are indistinguishable to the benefit model, the
replacement policy and graph truncation (see ``tests/twin_replay.py``).

Under ``pa`` the memo stands for the variant the proactive rewriter
made of the statement: its unrewritten plan, or the rewrite when that
is the one plan to run.  A benefit-steered rewrite may fall back to the
unrewritten plan, so it always takes the slow path.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import numpy as np

from repro import Database, RecyclerConfig
from repro.columnar import INT64, Schema, Table
from repro.columnar import types as column_types
from repro.columnar.catalog import Catalog, CatalogView
from repro.recycler.cache import CacheEntry
from repro.recycler import graph as graph_module
from repro.workloads import skyserver, timeseries, tpch
from repro.workloads.skyserver import queries as sky_queries
from twin_replay import Twins, quiet_config

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.harness import execute_op  # noqa: E402
from bench.workloads import SQL, WORKLOADS  # noqa: E402

#: small enough that TPC-H intermediates compete for it: admission
#: rejects, replacement evicts
PRESSURE_CACHE_BYTES = 256 * 1024


def config(cache_bytes: int) -> RecyclerConfig:
    """No background thread, so both twins do identical work; a short
    idle horizon, so every ``maintain()`` between repeats truncates."""
    return RecyclerConfig(
        mode="spec", cache_capacity=cache_bytes,
        maintenance_interval_seconds=None, truncate_min_idle_events=12)


def sky_statements(seed: int, count: int) -> list[str]:
    """The paper's pattern mix: mostly repeats of a few statements."""
    return [query.sql for query in
            sky_queries.generate_workload(count, seed=seed)]


@pytest.fixture
def sky_twins():
    twins = Twins(lambda: Database(
        config(64 * 1024 * 1024),
        catalog=skyserver.build_catalog(4000, seed=3)))
    yield twins
    twins.close()


@pytest.fixture
def tpch_twins():
    twins = Twins(lambda: Database(
        config(PRESSURE_CACHE_BYTES),
        catalog=tpch.build_catalog(0.002, seed=3)))
    yield twins
    twins.close()


def append_some(table: str, rows: int):
    """Append the table's own first ``rows`` rows (a committed update:
    version bump, dependents evicted, graph history kept)."""
    def op(db: Database) -> None:
        db.append_rows(table, db.catalog.table(table).head(rows))
    return op


class TestSkyServerMix:
    def test_warm_mix_is_state_identical(self, sky_twins):
        for index, text in enumerate(sky_statements(11, 160)):
            sky_twins.sql(text)
            if index % 40 == 39:
                sky_twins.assert_same_state()
        sky_twins.assert_same_state()
        fast_hits, slow_hits = sky_twins.root_hits()
        assert slow_hits == 0
        # premise: the stream is mostly repeats and they took the path
        assert fast_hits > 100

    def test_appends_maintain_and_flush_between_repeats(self, sky_twins):
        statements = sky_statements(12, 120)
        for index, text in enumerate(statements):
            sky_twins.sql(text)
            if index % 30 == 10 and "photoobj" in text:
                sky_twins.apply(append_some("photoobj", 50))
                # the statement survives; its cached root is stale, so
                # the repeat must fall to the slow path and recompute
                hits = sky_twins.root_hits()[0]
                sky_twins.sql(text)
                assert sky_twins.root_hits()[0] == hits
            if index % 30 == 20:
                sky_twins.apply(lambda db: db.maintain())
            if index == 75:
                sky_twins.apply(lambda db: db.flush_cache())
        sky_twins.assert_same_state()
        assert sky_twins.root_hits()[0] > 30

    def test_root_hit_record_reads_like_a_full_match(self, sky_twins):
        text = sky_queries.primary_pattern()
        cold = sky_twins.sql(text)
        warm = sky_twins.sql(text)
        hit = sky_twins.sql(text)
        assert cold.record.num_inserted > 0
        assert hit.record.num_inserted == 0
        assert hit.record.num_matched == \
            cold.record.num_inserted + cold.record.num_matched
        assert hit.record.num_reused == 1
        assert warm.record.num_matched == hit.record.num_matched
        assert sky_twins.root_hits()[0] >= 1


def test_repeated_hit_walks_coerces_locks_and_wakes_nothing(monkeypatch):
    """A primed SkyServer replay: a hit that repeats a hit costs O(1)
    in the plan, the root's subtree and the cache — no DMD walk
    (its true cost is memoized: no ``bcost`` or entry changed since
    the last hit), no column re-coerced into the served table, no plan
    stripe taken in ``finalize`` and no in-flight waiter woken."""
    db = Database(config(64 * 1024 * 1024),
                  catalog=skyserver.build_catalog(4000, seed=3))
    recycler = db.recycler
    statements = sky_statements(11, 120)
    for text in statements:
        db.sql(text)
    calls: Counter = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    finalizing = []
    for_key = recycler._stripes.for_key
    finalize = recycler.finalize

    def finalize_flagged(*args, **kwargs):
        finalizing.append(True)
        try:
            return finalize(*args, **kwargs)
        finally:
            finalizing.pop()

    def for_key_counted(key):
        if finalizing:
            calls["finalize stripe"] += 1
        return for_key(key)

    monkeypatch.setattr(graph_module, "_frontier",
                        counted("_frontier", graph_module._frontier))
    monkeypatch.setattr(column_types, "coerce_array",
                        counted("coerce_array", column_types.coerce_array))
    monkeypatch.setattr(recycler._stripes, "for_key", for_key_counted)
    monkeypatch.setattr(recycler, "finalize", finalize_flagged)
    monkeypatch.setattr(
        recycler.inflight._cond, "notify_all",
        counted("notify_all", recycler.inflight._cond.notify_all))
    repeated = 0
    for text in dict.fromkeys(statements):
        db.sql(text)
        hits = recycler.optimizer_summary()["root_hits"]
        calls.clear()
        result = db.sql(text)
        if recycler.optimizer_summary()["root_hits"] == hits + 1:
            repeated += 1
            assert calls == Counter(), text
            assert result.stats.physical_root is None
    # premise: the mix's statements are cached and repeat as hits
    assert repeated >= 5
    db.close()


def test_repeated_hit_builds_no_version_dicts(monkeypatch):
    """The reuse gate of a full-plan hit compares the entry's version
    tags with the snapshot in place: no ``versions_for`` call."""
    db = Database(config(64 * 1024 * 1024),
                  catalog=skyserver.build_catalog(4000, seed=3))
    recycler = db.recycler
    statements = sky_statements(11, 120)
    for text in statements:
        db.sql(text)
    calls = []
    versions_for = CatalogView.versions_for

    def counted(view, *args):
        calls.append(args)
        return versions_for(view, *args)

    monkeypatch.setattr(CatalogView, "versions_for", counted)
    repeated = 0
    for text in dict.fromkeys(statements):
        db.sql(text)
        hits = recycler.optimizer_summary()["root_hits"]
        del calls[:]
        db.sql(text)
        if recycler.optimizer_summary()["root_hits"] == hits + 1:
            repeated += 1
            assert calls == [], text
    assert repeated >= 5
    db.close()


def test_a_stale_version_refuses_the_entry():
    """The in-place gate says what comparing ``versions_for``'s dicts
    says: untagged entries match, key sets must be equal, a missing
    function tag set is empty, and a table or function version moved
    either way refuses the entry."""
    schema = Schema(["x"], [INT64])
    table = Table(schema, {"x": np.array([1], dtype=np.int64)})
    catalog = Catalog()
    catalog.register_table("t", table)
    catalog.register_table("u", table)
    catalog.register_function("f", lambda: table, schema)
    old = catalog.snapshot()
    catalog.register_table("t", table)
    catalog.register_function("f", lambda: table, schema)

    def entry(tables, functions) -> CacheEntry:
        return CacheEntry(node=None, table=table, size=0, benefit=0.0,
                          admitted_event=0, table_versions=tables,
                          function_versions=functions)

    entries = [entry(None, None), entry({"t": 2}, None),
               entry({"t": 2}, {}), entry({"t": 2}, {"f": 2}),
               entry({"t": 1}, {"f": 1}), entry({"t": 1, "u": 1}, None),
               entry({"u": 1}, None), entry({"u": 1}, {"f": 2}),
               entry({"t": 2, "u": 1}, {"f": 2}), entry({}, None)]
    dependencies = [(frozenset(), frozenset()),
                    (frozenset({"t"}), frozenset()),
                    (frozenset({"t"}), frozenset({"f"})),
                    (frozenset({"u"}), frozenset()),
                    (frozenset({"u"}), frozenset({"f"})),
                    (frozenset({"t", "u"}), frozenset({"f"}))]
    verdicts = []
    for view in (catalog, old):
        for tables, functions in dependencies:
            for cached in entries:
                expected = cached.versions_match(
                    *view.versions_for(tables, functions))
                assert cached.current_in(view, tables, functions) \
                    == expected, (cached, tables, functions)
                verdicts.append(expected)
    assert True in verdicts and False in verdicts
    # a stale table version, then a stale function version, refuses
    t_only, t_and_f = dependencies[1], dependencies[2]
    assert entry({"t": 2}, None).current_in(catalog, *t_only)
    assert not entry({"t": 2}, None).current_in(old, *t_only)
    assert entry({"t": 2}, {"f": 2}).current_in(catalog, *t_and_f)
    assert not entry({"t": 2}, {"f": 1}).current_in(catalog, *t_and_f)


class TestTpchUnderPressure:
    def test_streams_with_eviction_appends_and_maintenance(
            self, tpch_twins):
        streams = tpch.generate_streams(2, 0.002, seed=5)
        # each stream twice: qgen rarely repeats a statement by itself
        ops = [query.sql for stream in streams
               for query in list(stream) * 2]
        for index, text in enumerate(ops):
            tpch_twins.sql(text)
            if index % 22 == 21:
                tpch_twins.apply(lambda db: db.maintain())
                tpch_twins.assert_same_state()
            if index % 30 == 29:
                tpch_twins.apply(append_some("orders", 20))
        tpch_twins.assert_same_state()
        counters = tpch_twins.fast.recycler.cache.counters
        # premise: the cache was under pressure and the path was taken
        assert counters.evicted > 0 and counters.rejected > 0
        fast_hits, slow_hits = tpch_twins.root_hits()
        assert fast_hits > 0 and slow_hits == 0


# ---------------------------------------------------------------------
# proactive mode
# ---------------------------------------------------------------------
PA_SEED = 7


def pa_twins(build, steered: bool) -> Twins:
    """Twins of ``build``'s ``pa`` databases with benefit steering set
    to ``steered`` before their first query (the benchmark's builders
    take no config)."""
    def pa_build() -> Database:
        db = build()
        db.recycler.config.proactive_benefit_steered = steered
        return db
    twins = Twins(pa_build)
    assert twins.fast.recycler.config.proactive_enabled
    return twins


@pytest.mark.parametrize("steered", [True, False],
                         ids=["steered", "unsteered"])
@pytest.mark.parametrize("name", ["sky_warm", "ts_append",
                                  "tpch_pressure"])
def test_pa_replay_is_state_identical(name, steered):
    """A benchmark op list at a quarter size, two passes, appends and
    maintenance cycles included: the statements the rewriter leaves
    alone — and, unsteered, those it rewrites — take the root-hit path
    as under ``spec``; a steered rewrite never does."""
    workload = WORKLOADS[name]
    twins = pa_twins(lambda: workload.build(PA_SEED, 0.25, "pa"), steered)
    steered_rewrites = 0
    try:
        for op in workload.make_ops(PA_SEED, 0.25) * 2:
            if op.kind != SQL:
                twins.apply(lambda db: execute_op(db, op, PA_SEED))
                twins.assert_same_state()
                continue
            hits = twins.root_hits()[0]
            result = twins.sql(op.text)
            if steered and result.record.proactive:
                steered_rewrites += 1
                assert twins.root_hits()[0] == hits, op.text
            if twins.statements % 25 == 0:
                twins.assert_same_state()
        twins.assert_same_state()
        fast_hits, slow_hits = twins.root_hits()
        assert fast_hits > 0 and slow_hits == 0
        if steered and name != "tpch_pressure":
            # premise: a TopN the rewriter changed was issued
            assert steered_rewrites > 0
    finally:
        twins.close()


@pytest.mark.parametrize("steered", [True, False],
                         ids=["steered", "unsteered"])
def test_pa_memo_stands_for_its_window_variant(steered):
    """``site_rollup(k)`` covers every row, so it runs without its
    window and memoizes that plan's root.  An append moves the maximum
    past ``k``; ``site_rollup(k + 64)`` extends the windowless root over
    the new rows, and ``site_rollup(k)`` — no longer covering the table
    — must not be served that root.  ``alerts`` is a TopN over a window:
    its variant is a proactive rewrite of the pruned plan."""
    def build() -> Database:
        catalog = timeseries.build_catalog(2048, seed=9090)
        return Database(replace(quiet_config(64 * 1024 * 1024),
                                mode="pa"), catalog=catalog)

    twins = pa_twins(build, steered)
    rows = 2048
    try:
        for cycle in range(3):
            texts = [timeseries.site_rollup(rows),
                     timeseries.alerts(rows)]
            for text in texts * 3:
                twins.sql(text)
            twins.assert_same_state()
            append = timeseries.append_unit(cycle, rows, 64)
            twins.apply(lambda db: append(db, None))
            rows += 64
            # the new bound first: it extends the root the old one
            # memoized, which the old one must then not be served
            twins.sql(timeseries.site_rollup(rows))
            for text in texts:
                twins.sql(text)
            twins.assert_same_state()
        summary = twins.fast.summary()
        assert summary["catalog"]["entries_extended"] > 0
        assert summary["optimizer"]["conjuncts_proved"] > 0
        assert twins.root_hits()[0] > 0
    finally:
        twins.close()
