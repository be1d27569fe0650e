"""``bytes_out`` is exact: for every operator of every benchmark query
shape it equals the bytes of the batches the operator emitted, sized
the way the engine sized them before ``Batch.nbytes`` stopped calling
``infer_type`` + ``array_nbytes`` per column — kept here as the
reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, RecyclerConfig
from repro.columnar import Batch, types
from repro.engine.base import PhysicalOperator
from repro.workloads import skyserver, timeseries, tpch
from repro.workloads.skyserver import queries as sky


def reference_nbytes(batch) -> int:
    """What ``Batch.nbytes`` computed at the parent commit."""
    return sum(types.array_nbytes(array, types.infer_type(array))
               for array in batch.arrays.values())


class Emitted:
    """Per operator, the reference size of everything it emitted."""

    def __init__(self, monkeypatch) -> None:
        self.bytes: dict[PhysicalOperator, int] = {}
        self.kinds: set[tuple[str, int]] = set()
        original = PhysicalOperator.next

        def recording_next(op):
            batch = original(op)
            self.bytes.setdefault(op, 0)
            if batch is not None:
                self.bytes[op] += reference_nbytes(batch)
                self.kinds.update(
                    (array.dtype.kind, array.dtype.itemsize)
                    for array in batch.arrays.values())
            return batch

        monkeypatch.setattr(PhysicalOperator, "next", recording_next)

    def check(self) -> int:
        for op, want in self.bytes.items():
            assert op.bytes_out == want, op
        return len(self.bytes)


def _tpch():
    scale = 0.002
    stream = tpch.generate_stream(0, scale, seed=11)
    assert sorted(q.pattern for q in stream) == tpch.ALL_QUERY_IDS
    return (tpch.build_catalog(scale, seed=11),
            [q.sql for q in stream] + [
                # a BOOL column and a DATE column reach the output
                "SELECT l_orderkey, l_quantity > 30 AS big, l_shipdate"
                " FROM lineitem WHERE l_shipdate < date '1993-01-01'"])


def _skyserver():
    cone = sky.CANONICAL_CONE
    return (skyserver.build_catalog(6000),
            [sky.primary_pattern(cone), sky.magnitude_variant(cone),
             sky.type_histogram_variant(cone), sky.nearest_variant(cone),
             sky.primary_pattern(sky.OTHER_CONES[0]),
             "SELECT * FROM photoobj LIMIT 2000"])


def _dashboard():
    rows = 9000  # more than two vectors of the fact table
    return (timeseries.build_catalog(rows, seed=5),
            [timeseries.range_scan(rows - 500, rows),
             timeseries.sensor_rollup(), timeseries.site_rollup(rows),
             timeseries.alerts(rows), timeseries.hot_sensors(rows),
             timeseries.range_scan(0, rows // 2)])


@pytest.mark.parametrize("workload", [_tpch, _skyserver, _dashboard])
@pytest.mark.parametrize("mode", ["off", "spec"])
def test_every_operator_reports_what_it_emitted(monkeypatch, workload,
                                                mode):
    catalog, statements = workload()
    emitted = Emitted(monkeypatch)
    db = Database(RecyclerConfig(mode=mode,
                                 maintenance_interval_seconds=None),
                  catalog=catalog)
    try:
        for sql in statements:
            db.sql(sql)
            assert emitted.check() > 0, sql
    finally:
        db.close()
    # premise: STRING, DATE (int32) and BOOL columns were among those
    # sized, beside the 8-byte ones (SkyServer has no STRING column)
    assert {("f", 8), ("i", 8)} <= emitted.kinds
    if workload is not _skyserver:
        assert ("O", 8) in emitted.kinds
    if workload is _tpch:
        assert {("i", 4), ("b", 1)} <= emitted.kinds
    if mode == "spec":
        names = {type(op).__name__ for op in emitted.bytes}
        assert "StoreOp" in names
        if workload is _skyserver:
            assert "ReuseScanOp" in names  # the shared cone search


def test_batch_nbytes_sizes_string_like_arrays_as_strings():
    """``<U`` / ``S`` arrays (never produced by the engine, accepted by
    ``Batch``) still size as STRING payload, as ``infer_type`` had it."""
    batch = Batch({"u": np.array(["ab", "c", ""]),
                   "s": np.array([b"xyz", b"q"] + [b""]),
                   "d": np.array([1, 2, 3], dtype=np.int32),
                   "b": np.array([True, False, True])})
    assert batch.nbytes() == reference_nbytes(batch) == 3 + 4 + 12 + 3
