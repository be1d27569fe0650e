"""Unit tests for the columnar substrate: types, batches, tables, catalog."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.columnar import (BOOL, BinningSpec, Catalog, DATE, FLOAT64,
                            INT64, STRING, Schema, Table, concat_batches,
                            date_to_days, days_to_iso, infer_type,
                            type_from_name, years_of)
from repro.columnar.batch import Batch
from repro.columnar import types as t
from repro.errors import CatalogError, SchemaError, TypeError_


class TestTypes:
    def test_lookup_by_name(self):
        assert type_from_name("int64") is INT64
        assert type_from_name("DATE") is DATE
        with pytest.raises(TypeError_):
            type_from_name("decimal")

    @pytest.mark.parametrize("dtype", t.ALL_TYPES, ids=str)
    def test_copies_are_the_interned_constant(self, dtype):
        """Pickling (plans cross process boundaries) and deep copies
        return the interned object itself, so identity checks and
        identity hashing hold on the far side."""
        assert pickle.loads(pickle.dumps(dtype)) is dtype
        assert copy.deepcopy(dtype) is dtype
        assert copy.copy(dtype) is dtype
        schema = copy.deepcopy(Schema(["x"], [dtype]))
        assert schema.types[0] is dtype

    def test_types_key_dicts_and_sets_by_identity(self):
        codes = {dtype: dtype.name for dtype in t.ALL_TYPES}
        assert all(codes[type_from_name(name)] == name
                   for name in ("INT64", "FLOAT64", "BOOL", "STRING",
                                "DATE"))
        assert codes[pickle.loads(pickle.dumps(STRING))] == "STRING"
        assert STRING in {STRING, INT64} and DATE not in {STRING, INT64}
        assert INT64 == INT64 and INT64 != FLOAT64
        assert all(hash(dtype) == object.__hash__(dtype)
                   for dtype in t.ALL_TYPES)

    def test_infer_type(self):
        assert infer_type(np.zeros(3, dtype=np.int64)) is INT64
        assert infer_type(np.zeros(3, dtype=np.int32)) is DATE
        assert infer_type(np.zeros(3, dtype=np.float64)) is FLOAT64
        assert infer_type(np.zeros(3, dtype=bool)) is BOOL
        assert infer_type(np.array(["a"], dtype=object)) is STRING

    def test_date_round_trip(self):
        days = date_to_days("1998-12-01")
        assert days_to_iso(days) == "1998-12-01"
        assert date_to_days("1970-01-01") == 0

    def test_years_of(self):
        days = np.array([date_to_days("1995-06-15"),
                         date_to_days("1998-01-01")])
        assert list(years_of(days)) == [1995, 1998]

    def test_first_day_of_year(self):
        assert days_to_iso(t.first_day_of_year(1996)) == "1996-01-01"

    def test_string_nbytes_counts_payload(self):
        arr = np.array(["ab", "cdef"], dtype=object)
        assert t.array_nbytes(arr, STRING) == 6


class TestBatch:
    def test_ragged_batch_rejected(self):
        with pytest.raises(SchemaError):
            Batch({"a": np.arange(3), "b": np.arange(4)})

    def test_filter_take_slice(self):
        batch = Batch({"a": np.arange(5, dtype=np.int64)})
        assert list(batch.filter(
            np.array([True, False, True, False, True])).column("a")) == \
            [0, 2, 4]
        assert list(batch.take(np.array([3, 1])).column("a")) == [3, 1]
        assert list(batch.slice(1, 3).column("a")) == [1, 2]

    def test_derived_batches_skip_the_check_the_public_one_keeps(self):
        # filter / take / slice / select / rename build their result
        # through the trusted constructor; ``Batch(...)`` still checks
        batch = Batch({"a": np.arange(4), "b": np.arange(4) * 2.0})
        for derived, rows in [
                (batch.filter(np.array([True, False, True, False])), 2),
                (batch.take(np.array([3, 3, 0])), 3),
                (batch.slice(1, 4), 3), (batch.slice(2, 99), 2),
                (batch.select(["b"]), 4), (batch.rename({"a": "x"}), 4)]:
            assert len(derived) == rows
            assert {len(a) for a in derived.arrays.values()} == {rows}
        with pytest.raises(SchemaError):
            Batch({"a": np.arange(4), "b": np.arange(3)})
        with pytest.raises(SchemaError):
            Batch(dict(batch.arrays, c=np.arange(5)))

    def test_zero_column_batch_keeps_length_zero(self):
        empty = Batch({})
        assert len(empty) == 0
        assert len(empty.filter(np.zeros(0, dtype=bool))) == 0
        assert len(empty.take(np.array([0, 0, 0]))) == 0
        assert len(empty.slice(0, 5)) == 0
        assert len(empty.select([])) == 0 and empty.nbytes() == 0

    def test_nbytes_survives_rename(self, monkeypatch):
        words = np.empty(3, dtype=object)
        words[:] = ["ab", "", "cde"]
        batch = Batch({"s": words, "d": np.arange(3, dtype=np.int32)})
        assert batch.nbytes() == 5 + 12
        monkeypatch.setattr(t, "array_nbytes", None)  # would raise
        assert batch.rename({"s": "x"}).nbytes() == 17

    def test_rename_and_select(self):
        batch = Batch({"a": np.arange(2), "b": np.arange(2)})
        renamed = batch.rename({"a": "x"})
        assert renamed.names == ["x", "b"]
        assert renamed.select(["b"]).names == ["b"]

    def test_concat_layout_mismatch(self):
        a = Batch({"x": np.arange(2)})
        b = Batch({"y": np.arange(2)})
        with pytest.raises(SchemaError):
            concat_batches([a, b])

    def test_concat_skips_empty(self):
        a = Batch({"x": np.arange(2, dtype=np.int64)})
        empty = Batch({"x": np.zeros(0, dtype=np.int64)})
        merged = concat_batches([empty, a, empty])
        assert len(merged) == 2


class TestSchemaTable:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"], [INT64, INT64])

    def test_schema_select_rename_concat(self):
        schema = Schema(["a", "b"], [INT64, STRING])
        assert schema.select(["b"]).names == ["b"]
        assert schema.rename({"a": "x"}).names == ["x", "b"]
        combined = schema.concat(Schema(["c"], [FLOAT64]))
        assert combined.names == ["a", "b", "c"]

    def test_table_coerces_dtypes(self):
        table = Table(Schema(["d"], [DATE]),
                      {"d": np.array([1, 2, 3], dtype=np.int64)})
        assert table.column("d").dtype == np.int32

    def test_table_batches_round_trip(self):
        table = Table.from_rows(["x"], [INT64],
                                [(i,) for i in range(10)])
        batches = table.to_batches(vector_size=3)
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        rebuilt = Table.from_batches(table.schema, batches)
        assert rebuilt.to_rows() == table.to_rows()

    def test_to_batch_is_a_window_of_views_and_freeze_reaches_them(self):
        table = Table.from_rows(["x", "s"], [INT64, STRING],
                                [(i, str(i)) for i in range(10)])
        window = table.to_batch(3, 7)
        assert window.column("x").tolist() == [3, 4, 5, 6]
        assert np.shares_memory(window.column("x"), table.column("x"))
        assert len(table.to_batch()) == 10
        assert len(table.to_batch(8, 99)) == 2
        table.freeze()
        for name, value in (("x", 1), ("s", "q")):
            with pytest.raises(ValueError):
                table.column(name)[0] = value
            with pytest.raises(ValueError):
                table.to_batch(0, 2).column(name)[0] = value

    def test_empty_table(self):
        table = Table.empty(Schema(["x", "s"], [INT64, STRING]))
        assert table.num_rows == 0
        assert table.to_batches() == []
        assert table.nbytes() == 0

    def test_nbytes_is_sized_once_and_survives_rename(self, monkeypatch):
        table = Table.from_rows(["x", "s"], [INT64, STRING],
                                [(1, "ab"), (2, ""), (3, "cde")])
        assert table.nbytes() == 3 * 8 + 5
        renamed = table.rename({"s": "label"})

        def fail(values, dtype):
            raise AssertionError("sized again")
        monkeypatch.setattr(t, "array_nbytes", fail)
        assert table.nbytes() == renamed.nbytes() == 29
        assert renamed.schema.names == ["x", "label"]

    def test_sorted_rows_is_order_insensitive(self):
        a = Table.from_rows(["x"], [INT64], [(2,), (1,)])
        b = Table.from_rows(["x"], [INT64], [(1,), (2,)])
        assert a.sorted_rows() == b.sorted_rows()


class TestCatalog:
    def test_register_and_stats(self):
        catalog = Catalog()
        catalog.register_table("t", Table.from_rows(
            ["g", "v"], [INT64, FLOAT64],
            [(1, 1.0), (1, 2.0), (2, 3.0)]))
        assert catalog.distinct_count("t", "g") == 2
        assert catalog.column_range("t", "v") == (1.0, 3.0)

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("missing")

    def test_binning_spec_validation(self):
        with pytest.raises(CatalogError):
            BinningSpec("c", "nonsense")
        with pytest.raises(CatalogError):
            BinningSpec("c", "width", width=0)
        assert BinningSpec("c", "width", width=10).width == 10

    def test_function_schema_enforced(self):
        catalog = Catalog()
        schema = Schema(["n"], [INT64])

        def bad():
            return Table.from_rows(["wrong"], [INT64], [(1,)])

        catalog.register_function("f", bad, schema)
        with pytest.raises(CatalogError):
            catalog.call_function("f", [])

    def test_replace_table_recomputes_stats(self):
        catalog = Catalog()
        catalog.register_table("t", Table.from_rows(
            ["x"], [INT64], [(1,)]))
        catalog.register_table("t", Table.from_rows(
            ["x"], [INT64], [(1,), (2,), (3,)]))
        assert catalog.distinct_count("t", "x") == 3
