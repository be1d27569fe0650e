"""_BuildIndex parity: the packed radix path vs. a brute-force oracle.

The vectorized index must produce *exactly* the matches — and in
exactly the order — of the per-row dict it replaced: probe-major, build
matches in build order.  The oracle below is that dict, re-implemented
in ten lines (``tests/property/test_join_kernel_properties.py`` holds
the dense and the sorted lookup to it over generated keys).  A probe
key of another type than the build key matches by value, as SQL says:
the join and ``IN`` shapes at the bottom are checked against stdlib
``sqlite3``.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64
from repro.columnar.batch import Batch
from repro.engine import join as join_mod
from repro.engine.join import _BuildIndex


def oracle_probe(build: Batch, probe_arrays, keys):
    """Per-row dict lookup: the pre-vectorization reference semantics."""
    index: dict = {}
    build_arrays = [build.column(k) for k in keys]
    for row in range(len(build)):
        key = tuple(arr[row] for arr in build_arrays)
        index.setdefault(key, []).append(row)
    probe_pos, build_pos = [], []
    for row in range(len(probe_arrays[0])):
        key = tuple(arr[row] for arr in probe_arrays)
        for match in index.get(key, ()):
            probe_pos.append(row)
            build_pos.append(match)
    return probe_pos, build_pos


def assert_parity(build, probe_arrays, keys):
    probe_pos, build_pos = _BuildIndex(build, keys).probe(probe_arrays)
    expect_probe, expect_build = oracle_probe(build, probe_arrays, keys)
    assert probe_pos.tolist() == expect_probe
    assert build_pos.tolist() == expect_build


class TestSingleKey:
    def test_int_duplicates_preserve_build_order(self):
        build = Batch({"k": np.array([3, 1, 3, 2, 3], dtype=np.int64)})
        assert_parity(build, [np.array([3, 9, 1], dtype=np.int64)], ["k"])

    def test_string_key_goes_through_packing(self):
        build = Batch({"k": np.array(["b", "a", "b", "c"], dtype=object)})
        probe = [np.array(["b", "z", "a", "b"], dtype=object)]
        assert_parity(build, probe, ["k"])

    def test_float_key_and_nan_never_matches(self):
        build = Batch({"k": np.array([1.5, np.nan, 2.5])})
        probe = [np.array([np.nan, 1.5, 2.5, 3.5])]
        probe_pos, build_pos = _BuildIndex(build, ["k"]).probe(probe)
        # NaN != NaN: probe row 0 finds nothing, like dict lookups of
        # fresh float objects never did
        assert probe_pos.tolist() == [1, 2]
        assert build_pos.tolist() == [0, 2]

    def test_empty_build_side(self):
        build = Batch({"k": np.array([], dtype=np.int64)})
        probe_pos, build_pos = _BuildIndex(build, ["k"]).probe(
            [np.array([1, 2], dtype=np.int64)])
        assert len(probe_pos) == 0 and len(build_pos) == 0

    def test_empty_string_build_side(self):
        build = Batch({"k": np.array([], dtype=object)})
        probe_pos, _ = _BuildIndex(build, ["k"]).probe(
            [np.array(["x"], dtype=object)])
        assert len(probe_pos) == 0


class TestMultiKey:
    def test_two_int_keys(self):
        rng = np.random.default_rng(11)
        build = Batch({"a": rng.integers(0, 5, 40),
                       "b": rng.integers(0, 5, 40)})
        probe = [rng.integers(0, 6, 25), rng.integers(0, 6, 25)]
        assert_parity(build, probe, ["a", "b"])

    def test_mixed_int_string_keys(self):
        rng = np.random.default_rng(12)
        names = np.array(["x", "y", "z"], dtype=object)
        build = Batch({"a": rng.integers(0, 4, 30),
                       "s": names[rng.integers(0, 3, 30)]})
        probe_names = np.array(["x", "y", "w"], dtype=object)
        probe = [rng.integers(0, 5, 20),
                 probe_names[rng.integers(0, 3, 20)]]
        assert_parity(build, probe, ["a", "s"])

    def test_three_keys(self):
        rng = np.random.default_rng(13)
        build = Batch({"a": rng.integers(0, 3, 50),
                       "b": rng.integers(0, 3, 50),
                       "c": rng.integers(0, 3, 50)})
        probe = [rng.integers(0, 4, 30) for _ in range(3)]
        assert_parity(build, probe, ["a", "b", "c"])

    def test_no_cross_column_aliasing(self):
        # (1, 2) must not match (2, 1): packing is injective
        build = Batch({"a": np.array([1, 2], dtype=np.int64),
                       "b": np.array([2, 1], dtype=np.int64)})
        probe = [np.array([2], dtype=np.int64),
                 np.array([1], dtype=np.int64)]
        probe_pos, build_pos = _BuildIndex(build, ["a", "b"]).probe(probe)
        assert probe_pos.tolist() == [0]
        assert build_pos.tolist() == [1]


class TestRedensify:
    def test_forced_redensify_keeps_parity(self, monkeypatch):
        """With the radix limit squashed to 1 every column boundary
        re-densifies; results must not change."""
        monkeypatch.setattr(join_mod, "_RADIX_LIMIT", 1)
        rng = np.random.default_rng(21)
        build = Batch({"a": rng.integers(0, 7, 60),
                       "b": rng.integers(0, 7, 60),
                       "c": rng.integers(0, 7, 60)})
        probe = [rng.integers(0, 8, 40) for _ in range(3)]
        assert_parity(build, probe, ["a", "b", "c"])
        index = _BuildIndex(build, ["a", "b", "c"])
        assert any(p is not None for p in index._redensify)

    def test_default_limit_avoids_redensify_for_small_keys(self):
        rng = np.random.default_rng(22)
        build = Batch({"a": rng.integers(0, 7, 60),
                       "b": rng.integers(0, 7, 60)})
        index = _BuildIndex(build, ["a", "b"])
        assert index._redensify == [None]


@pytest.mark.parametrize("seed", range(5))
def test_randomized_parity(seed):
    rng = np.random.default_rng(seed)
    n_build, n_probe = rng.integers(0, 80), rng.integers(0, 80)
    names = np.array([f"s{i}" for i in range(6)], dtype=object)
    build = Batch({"a": rng.integers(0, 6, n_build),
                   "s": names[rng.integers(0, 6, n_build)],
                   "f": rng.integers(0, 4, n_build).astype(np.float64)})
    probe = [rng.integers(0, 7, n_probe),
             names[rng.integers(0, 6, n_probe)],
             rng.integers(0, 5, n_probe).astype(np.float64)]
    assert_parity(build, probe, ["a", "s", "f"])


class TestIntegerKeyAgainstFloatProbe:
    """A float probe key equals an integer build key only where it is
    integral: ``1.5`` must not find ``1`` (the integer path once
    truncated probe keys to int64), whichever side builds — checked
    against stdlib ``sqlite3``."""

    A = {"k": [1, 2, 3], "av": [10, 20, 30]}
    B = {"f": [1.5, 2.0, 2.9], "bv": [100, 200, 300]}
    SHAPES = ["SELECT av, bv FROM b JOIN a ON f = k",
              "SELECT av, bv FROM a JOIN b ON k = f",
              "SELECT bv FROM b WHERE f IN (SELECT k FROM a)"]

    @pytest.fixture(scope="class")
    def engines(self):
        db = Database(RecyclerConfig(mode="off"))
        oracle = sqlite3.connect(":memory:")
        for name, rows, types in (("a", self.A, (INT64, INT64)),
                                  ("b", self.B, (FLOAT64, INT64))):
            db.register_table(name, Table(
                Table.from_rows(list(rows), list(types), []).schema,
                {column: np.array(values, dtype=dtype.numpy_dtype)
                 for (column, values), dtype in zip(rows.items(), types)}))
            oracle.execute(f"CREATE TABLE {name} ({', '.join(rows)})")
            oracle.executemany(
                f"INSERT INTO {name} VALUES ({', '.join('?' * len(rows))})",
                zip(*rows.values()))
        yield db, oracle
        db.close()
        oracle.close()

    @pytest.mark.parametrize("sql", SHAPES)
    def test_matches_sqlite(self, engines, sql):
        db, oracle = engines
        got = sorted(db.sql(sql).table.to_rows())
        want = sorted(oracle.execute(sql).fetchall())
        assert got == want
        assert len(want) == 1

    @pytest.mark.parametrize("build_dtype", ["int64", "int32", "uint64"])
    def test_index_compares_by_value(self, build_dtype):
        # dense and sorted alike: span 3 over 3 rows is dense, span
        # 10^6 over 3 rows is not
        for top in (3, 10 ** 6):
            build = Batch({"k": np.array([1, 2, top], dtype=build_dtype)})
            probe = [np.array([1.5, 2.0, float(top), np.nan, -1.0,
                               2.0 ** 64, float(top) + 0.5])]
            index = _BuildIndex(build, ["k"])
            assert index.dense == (top == 3)
            probe_pos, build_pos = index.probe(probe)
            assert probe_pos.tolist() == [1, 2]
            assert build_pos.tolist() == [1, 2]
            assert index.matched(probe).tolist() == [
                False, True, True, False, False, False, False]
