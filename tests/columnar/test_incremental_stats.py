"""Incremental append statistics: exact equivalence with full recompute.

``Catalog.append_rows`` merges the delta batch's NaN-aware
min/max/uniques into the existing ``ColumnStats`` instead of rescanning
the merged table, and falls back to a full recompute only when the
merge cannot be exact (no prior stats, or a column whose retained set
the ``STATS_UNIQUES_LIMIT`` cap dropped and whose range the delta
overlaps).  The property test drives random append sequences over a
mixed-type table and demands the incremental stats equal a from-scratch
``_compute_stats`` of the final table, byte for byte.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, RecyclerConfig, Table
from repro.columnar import DATE, FLOAT64, INT64, Schema, STRING
from repro.columnar import catalog as catalog_module
from repro.columnar.catalog import Catalog, _compute_stats

SCHEMA = Schema(["i", "f", "s"], [INT64, FLOAT64, STRING])


def make_table(ints, floats, strings) -> Table:
    return Table(SCHEMA, {
        "i": np.array(ints, dtype=np.int64),
        "f": np.array(floats, dtype=np.float64),
        "s": np.array(strings, dtype=object),
    })


ROW = st.tuples(
    st.integers(-5, 5),
    st.one_of(st.just(float("nan")),
              st.floats(-4, 4, allow_nan=False).map(
                  lambda x: round(x, 2))),
    st.sampled_from(["a", "b", "c", "dd", "e"]),
)
BATCH = st.lists(ROW, min_size=0, max_size=6)


@contextmanager
def uniques_limit(cap: int):
    """The catalog's retained-set cap set to ``cap`` (usable inside a
    hypothesis test, unlike the function-scoped ``monkeypatch``
    fixture)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalog_module, "STATS_UNIQUES_LIMIT", cap)
        yield


def batch_table(rows) -> Table:
    if not rows:
        return make_table([], [], [])
    ints, floats, strings = zip(*rows)
    return make_table(list(ints), list(floats), list(strings))


class TestIncrementalEqualsFull:
    @settings(max_examples=60, deadline=None)
    @given(base=BATCH, batches=st.lists(BATCH, min_size=1, max_size=8))
    def test_random_append_sequences(self, base, batches):
        catalog = Catalog()
        catalog.register_table("t", batch_table(base))
        for rows in batches:
            catalog.append_rows("t", batch_table(rows))
        entry = catalog.table_entry("t")
        expected = _compute_stats(entry.table)
        # ColumnStats equality ignores the retained uniques payload:
        # this compares the visible statistics (distinct/min/max).
        assert entry.column_stats == expected
        # registration retained uniques, so every append merged —
        # no append ever paid for a full rescan (and an empty append
        # changes nothing, so merges nothing)
        assert catalog.stats_counters["incremental_merges"] == \
            sum(1 for rows in batches if rows)
        assert catalog.stats_counters["full_recomputes"] == 0

    @settings(max_examples=60, deadline=None)
    @given(base=BATCH, batches=st.lists(BATCH, min_size=1, max_size=8))
    def test_random_appends_under_a_small_cap(self, base, batches):
        """With retained sets dropped early, each append either merges
        by disjoint ranges or recomputes — exact after every one."""
        with uniques_limit(2):
            catalog = Catalog()
            catalog.register_table("t", batch_table(base))
            for rows in batches:
                catalog.append_rows("t", batch_table(rows))
                entry = catalog.table_entry("t")
                assert entry.column_stats == _compute_stats(entry.table)

    def test_nan_aware_merge(self):
        catalog = Catalog()
        catalog.register_table("t", make_table(
            [1, 2], [1.0, np.nan], ["a", "b"]))
        catalog.append_rows("t", make_table(
            [3], [np.nan], ["c"]))
        catalog.append_rows("t", make_table(
            [1], [2.5], ["a"]))
        assert catalog.distinct_count("t", "f") == 2
        assert catalog.column_range("t", "f") == (1.0, 2.5)
        assert catalog.distinct_count("t", "i") == 3
        assert catalog.distinct_count("t", "s") == 3
        assert catalog.stats_counters["incremental_merges"] == 2

    def test_all_nan_prefix_then_values(self):
        catalog = Catalog()
        catalog.register_table("t", make_table(
            [], [], []))
        catalog.append_rows("t", make_table([7], [np.nan], ["z"]))
        assert catalog.column_range("t", "f") is None
        catalog.append_rows("t", make_table([8], [0.5], ["z"]))
        assert catalog.column_range("t", "f") == (0.5, 0.5)
        assert catalog.distinct_count("t", "i") == 2


class TestStaleness:
    """The full recompute is a fallback, taken only where a merge
    cannot be exact."""

    def test_appends_never_recompute_while_merges_are_exact(self):
        catalog = Catalog()
        catalog.register_table("t", make_table([1], [1.0], ["a"]))
        for k in range(1, 21):
            catalog.append_rows("t", make_table([k], [float(k)], ["a"]))
        assert catalog.stats_counters == {"incremental_merges": 20,
                                          "full_recomputes": 0}
        assert catalog.distinct_count("t", "i") == 20

    def test_no_prior_stats_forces_full_pass(self):
        catalog = Catalog()
        catalog.register_table("t", make_table([1], [1.0], ["a"]),
                               compute_stats=False)
        catalog.append_rows("t", make_table([2], [2.0], ["b"]))
        assert catalog.stats_counters["full_recomputes"] == 1
        assert catalog.distinct_count("t", "i") == 2
        # the full pass retained uniques, so the next append merges
        catalog.append_rows("t", make_table([3], [3.0], ["c"]))
        assert catalog.stats_counters["incremental_merges"] == 1

    def test_compute_stats_false_appends_stay_statless(self):
        catalog = Catalog()
        catalog.register_table("t", make_table([1], [1.0], ["a"]),
                               compute_stats=False)
        catalog.append_rows("t", make_table([2], [2.0], ["b"]),
                            compute_stats=False)
        assert catalog.table_entry("t").column_stats == {}
        assert catalog.stats_counters == {"incremental_merges": 0,
                                          "full_recomputes": 0}

    def test_uniques_cardinality_cap(self, monkeypatch):
        """A high-cardinality column drops its retained set (bounded
        stat memory); an append whose values lie wholly outside the
        prior range still merges (the distinct counts add), one that
        overlaps it falls back to the full recompute; visible
        statistics stay exact either way."""
        monkeypatch.setattr(catalog_module, "STATS_UNIQUES_LIMIT", 4)
        catalog = Catalog()
        catalog.register_table("t", make_table(
            [1, 2, 3, 4, 5], [1.0] * 5, ["a"] * 5))
        entry = catalog.table_entry("t")
        assert entry.column_stats["i"].uniques is None      # 5 > 4
        assert entry.column_stats["i"].distinct_count == 5  # still exact
        assert entry.column_stats["s"].uniques is not None  # 1 <= 4
        catalog.append_rows("t", make_table([6], [2.0], ["b"]))
        assert catalog.stats_counters == {"incremental_merges": 1,
                                          "full_recomputes": 0}
        assert catalog.distinct_count("t", "i") == 6
        assert catalog.column_range("t", "i") == (1, 6)
        catalog.append_rows("t", make_table([-1, 0], [2.0] * 2,
                                            ["b"] * 2))
        assert catalog.stats_counters["incremental_merges"] == 2
        assert catalog.column_range("t", "i") == (-1, 6)
        # 3 is inside [-1, 6]: whether it is new cannot be known
        catalog.append_rows("t", make_table([3, 9], [2.0] * 2,
                                            ["b"] * 2))
        assert catalog.stats_counters == {"incremental_merges": 2,
                                          "full_recomputes": 1}
        assert catalog.distinct_count("t", "i") == 9
        entry = catalog.table_entry("t")
        assert entry.column_stats == _compute_stats(entry.table)

    def test_capped_string_and_float_columns_merge_by_range(
            self, monkeypatch):
        monkeypatch.setattr(catalog_module, "STATS_UNIQUES_LIMIT", 2)
        catalog = Catalog()
        catalog.register_table("t", make_table(
            [1, 1, 1], [1.5, np.nan, 2.5], ["b", "c", "d"]))
        catalog.append_rows("t", make_table(
            [1, 1], [np.nan, 3.5], ["e", "f"]))     # all above
        catalog.append_rows("t", make_table(
            [1, 1, 1], [0.5, 0.25, 0.5], ["a", "a", "a"]))  # all below
        assert catalog.stats_counters == {"incremental_merges": 2,
                                          "full_recomputes": 0}
        entry = catalog.table_entry("t")
        assert entry.column_stats == _compute_stats(entry.table)
        assert entry.column_stats["s"].uniques is None
        catalog.append_rows("t", make_table([1], [9.0], ["c"]))  # inside
        assert catalog.stats_counters["full_recomputes"] == 1
        entry = catalog.table_entry("t")
        assert entry.column_stats == _compute_stats(entry.table)


#: one DDL step of :class:`TestExactRanges`: register (with or without
#: statistics), append (rows may be none; with or without statistics),
#: add a column, rename one
DDL = st.one_of(
    st.tuples(st.just("register"), st.lists(st.integers(-9, 9),
                                            max_size=6), st.booleans()),
    st.tuples(st.just("append"), st.lists(st.integers(-9, 9), max_size=6),
              st.booleans()),
    st.tuples(st.just("add"), st.sampled_from([INT64, DATE, FLOAT64]),
              st.integers(-9, 9)),
    st.tuples(st.just("rename"), st.integers(0, 10)),
)


def typed_rows(schema: Schema, seeds: list[int]) -> Table:
    """One row per seed, each column's value derived from it."""
    columns = {}
    for position, (name, dtype) in enumerate(zip(schema.names,
                                                 schema.types)):
        values = [seed * (position + 1) for seed in seeds]
        if dtype is STRING:
            columns[name] = np.array([f"s{v}" for v in values],
                                     dtype=object)
        elif dtype is FLOAT64:
            columns[name] = np.array([np.nan if v == 0 else v / 4
                                      for v in values], dtype=np.float64)
        elif dtype is DATE:
            columns[name] = np.array([18_000 + v for v in values],
                                     dtype=np.int32)
        else:
            columns[name] = np.array(values, dtype=np.int64)
    return Table(schema, columns)


class TestExactRanges:
    """The premise of dropping moving windows (``Recycler.prepare``):
    on any snapshot, an INT64 / DATE ``column_range`` is unknown or the
    exact min / max of that snapshot's column — whatever DDL led there."""

    @settings(max_examples=80, deadline=None)
    @given(steps=st.lists(DDL, min_size=1, max_size=10),
           cap=st.sampled_from([2, 65536]))
    def test_every_snapshot_has_exact_ranges(self, steps, cap):
        with uniques_limit(cap):
            self.check_exact_ranges(steps)

    @staticmethod
    def check_exact_ranges(steps) -> None:
        catalog = Catalog()
        schema = Schema(["i", "d", "f", "s"], [INT64, DATE, FLOAT64, STRING])
        catalog.register_table("t", typed_rows(schema, [1, 2]))
        snapshots = [catalog.snapshot()]
        for number, (kind, *args) in enumerate(steps):
            schema = catalog.table("t").schema
            if kind == "register":
                seeds, stats = args
                catalog.register_table("t", typed_rows(schema, seeds),
                                       compute_stats=stats)
            elif kind == "append":
                seeds, stats = args
                catalog.append_rows("t", typed_rows(schema, seeds),
                                    compute_stats=stats)
            elif kind == "add":
                dtype, default = args
                catalog.alter_table_add_column("t", f"a{number}", dtype,
                                               default)
            else:
                old = schema.names[args[0] % len(schema.names)]
                catalog.rename_column("t", old, f"r{number}")
            snapshots.append(catalog.snapshot())
        for snapshot in snapshots:
            table = snapshot.table("t")
            for name, dtype in zip(table.schema.names, table.schema.types):
                if dtype not in (INT64, DATE):
                    continue
                span = snapshot.column_range("t", name)
                values = table.column(name)
                assert span is None or (len(values) and span == (
                    values.min().item(), values.max().item())), name


class TestFacadeCounter:
    def test_summary_reports_incremental_merges(self):
        db = Database(RecyclerConfig(mode="spec"))
        db.register_table("t", make_table([1, 2], [1.0, 2.0], ["a", "b"]))
        db.append_rows("t", [(3, 3.0, "c")])
        db.append_rows("t", [(4, 4.0, "d")])
        stats = db.summary()["maintenance"]
        assert stats["stats_incremental_merges"] == 2
        assert db.catalog.distinct_count("t", "i") == 4
        db.close()
