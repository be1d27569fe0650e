"""The vector size is invisible to answers and to the recycler.

Each stream is replayed at ``VECTOR_SIZE`` and at the 1024 the engine
ran at before the size was measured (by patching the one name
``ExecutionService`` reads).  Every result is byte-identical, every
integer the recycler keeps is equal, and cost-valued fields agree to
float rounding: operators charge per tuple, so only the *order* of the
additions changes.  What may move is what is charged per *pulled
vector*: a speculative store buffers up to the vector boundary it
decides at, so a statement's ``total_cost`` can differ by that much
buffering (and a stream's by less than 0.1 %); and a ``LIMIT`` that
stops a scan early has paid for the whole vector it stopped in —
pinned by its own test below, and kept out of the replayed streams by
limits that are multiples of both sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.exec_service
from repro import Database
from repro.columnar.batch import VECTOR_SIZE
from repro.engine import execute_plan
from repro.engine.cost import DEFAULT_COST_MODEL
from repro.plan.logical import Limit, Scan
from repro.workloads import skyserver, timeseries, tpch
from repro.workloads.skyserver import queries as sky
from twin_replay import RECORD_FIELDS, quiet_config, replay

COST = RECORD_FIELDS.index("total_cost")
STORES = RECORD_FIELDS.index("num_stores_injected")


def _tpch_slice():
    streams = tpch.generate_streams(2, 0.004, seed=5)
    ops = [query.sql for stream in streams for query in list(stream) * 2]
    ops.insert(len(ops) // 2, lambda db: db.maintain())
    return (lambda: Database(quiet_config(512 * 1024),
                             catalog=tpch.build_catalog(0.004, seed=3)),
            ops)


def _sky_mix():
    rng = np.random.default_rng(17)
    cones = [sky.CANONICAL_CONE] + sky.OTHER_CONES[:2]
    builders = [sky.primary_pattern, sky.magnitude_variant,
                sky.type_histogram_variant, sky.nearest_variant]
    ops = [builders[int(rng.integers(4))](cones[int(rng.integers(3))])
           for _ in range(40)]
    ops.append(f"SELECT * FROM photoobj LIMIT {2 * VECTOR_SIZE}")
    return (lambda: Database(quiet_config(64 * 1024 * 1024),
                             catalog=skyserver.build_catalog(12000)),
            ops * 2)


def _dashboard_with_appends():
    initial, batch = 9000, 300
    ops, rows = [], initial
    for cycle in range(3):
        ops.append(lambda db, cycle=cycle, rows=rows: db.append_rows(
            "metrics", timeseries._batch(rows, batch, 7 + cycle)))
        rows += batch
        ops.extend([timeseries.range_scan(rows - batch, rows),
                    timeseries.sensor_rollup(),
                    timeseries.site_rollup(rows),
                    timeseries.alerts(rows),
                    timeseries.hot_sensors(rows),
                    timeseries.site_rollup(initial)] * 2)
    return (lambda: Database(quiet_config(64 * 1024 * 1024),
                             catalog=timeseries.build_catalog(
                                 initial, seed=7)),
            ops)


def _replay(build, ops):
    db = build()
    try:
        return replay(db, ops)
    finally:
        db.close()


@pytest.mark.parametrize("stream", [_tpch_slice, _sky_mix,
                                    _dashboard_with_appends])
def test_replay_at_1024_and_at_the_constant_agree(monkeypatch, stream):
    assert VECTOR_SIZE != 1024
    build, ops = stream()
    produced, state = _replay(build, ops)
    monkeypatch.setattr(repro.exec_service, "VECTOR_SIZE", 1024)
    want_produced, want_state = _replay(build, ops)

    assert len(produced) == len(want_produced) > 20
    for index, ((got_bytes, got), (want_bytes, want)) in enumerate(
            zip(produced, want_produced)):
        assert got_bytes == want_bytes, index
        # a speculating store charges ``store_buffer_tuple`` for what
        # it buffers before deciding, and decides at a vector boundary
        allowance = got[STORES] * (VECTOR_SIZE - 1024) \
            * DEFAULT_COST_MODEL.store_buffer_tuple
        assert abs(got[COST] - want[COST]) <= \
            allowance + 1e-9 * want[COST], index
        assert got[:COST] + got[COST + 1:] == \
            want[:COST] + want[COST + 1:], index
    assert sum(got[COST] for _, got in produced) == pytest.approx(
        sum(want[COST] for _, want in want_produced), rel=1e-3)

    assert state["counters"] == want_state["counters"]
    assert state["event"] == want_state["event"]
    assert state["used"] == want_state["used"]
    assert state["nodes"].keys() == want_state["nodes"].keys()
    for node_id, got in state["nodes"].items():
        # (refs_raw, age_event, last_access_event, exec_count, bcost,
        #  rows, size_bytes, is_materialized)
        want = want_state["nodes"][node_id]
        assert got[4] == pytest.approx(want[4], rel=1e-9), node_id
        assert got[:4] + got[5:] == want[:4] + want[5:], node_id
    assert len(state["entries"]) == len(want_state["entries"])
    for got, want in zip(state["entries"], want_state["entries"]):
        # (node_id, benefit, reuse_count, last_used_event, size)
        assert got[1] == pytest.approx(want[1], rel=1e-9)
        assert got[:1] + got[2:] == want[:1] + want[2:]
    # premise: the stream stored, reused and spanned several vectors
    assert state["counters"].admitted > 0
    assert state["counters"].reuses > 0


@pytest.mark.parametrize("vector_size", [1024, VECTOR_SIZE])
def test_a_limit_pays_for_every_vector_it_pulled(vector_size):
    catalog = skyserver.build_catalog(12000)
    limit = VECTOR_SIZE + 904
    plan = Limit(Scan("photoobj", ["objid", "ra"]), limit=limit)
    result = execute_plan(plan, catalog, vector_size=vector_size)
    assert result.table.num_rows == limit
    pulled = -(-limit // vector_size) * vector_size
    model = DEFAULT_COST_MODEL
    assert result.stats.total_cost == pytest.approx(
        pulled * (model.scan_tuple + model.limit_tuple))
    scan = result.stats.node_stats[0]
    assert scan.rows_out == pulled and not scan.exhausted
