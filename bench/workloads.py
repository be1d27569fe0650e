"""The four benchmark workloads: seeded op lists and database builders.

A workload is a fixed list of :class:`Op` replayed, pass after pass,
against a database built afresh for each pass.  The same ``seed`` and
``size`` always give the same data and the same op list; ``size`` 1.0
is the benchmark's size (see ``README.md`` for the recorded figures)
and the harness tests run a few percent of it.

Why four, and why these: each one puts a different layer on the
blocking path — ``tpch_pressure`` the engine and the cache's
replacement policy, ``sky_warm`` the SQL front end and the matcher,
``ts_append`` the columnar write path and invalidation, ``served_mix``
the wire — so a change to one layer has a workload where it must show
and three where it must not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import Database, RecyclerConfig
from repro.workloads import skyserver, timeseries, tpch
from repro.workloads.skyserver import queries as sky_queries

#: op kinds
SQL = "sql"            # one statement through ``Database.sql`` / TCP
SCAN = "scan"          # one large result; streamed over HTTP when served
APPEND = "append"      # one ``Database.append_rows`` batch
MAINTAIN = "maintain"  # one ``Database.maintain()`` cycle


@dataclass(frozen=True)
class Op:
    kind: str
    text: str = ""
    #: append ops: which deterministic batch to append, and where the
    #: feed stands before it
    batch: int = -1
    start_row: int = 0
    rows: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(seed, size) -> op list``
    make_ops: Callable[[int, float], list[Op]]
    #: ``(seed, size, mode) -> Database`` with the tables registered
    build: Callable[[int, float, str], Database]
    #: statements executed once during set-up so that timed passes start
    #: from a warm recycler: ``(ops) -> statements``
    priming: Callable[[list[Op]], list[str]]
    #: True when the database lives in a server child and the ops
    #: travel over TCP / HTTP
    served: bool = False


def _config(mode: str, cache_bytes: int) -> RecyclerConfig:
    # No maintenance thread: background work is issued as MAINTAIN ops
    # at fixed positions, so every pass does identical work.
    return RecyclerConfig(mode=mode, cache_capacity=cache_bytes,
                          maintenance_interval_seconds=None)


def _no_priming(ops: list[Op]) -> list[str]:
    return []


def _distinct_statements(ops: list[Op]) -> list[str]:
    seen: dict[str, None] = {}
    for op in ops:
        if op.kind in (SQL, SCAN):
            seen.setdefault(op.text)
    return list(seen)


# ----------------------------------------------------------------------
# tpch_pressure
# ----------------------------------------------------------------------
TPCH_SCALE_FACTOR = 0.004
TPCH_STREAMS = 12
TPCH_CACHE_BYTES = 3 * 1024 * 1024


def _tpch_scale(size: float) -> float:
    return TPCH_SCALE_FACTOR * size


def _tpch_ops(seed: int, size: float) -> list[Op]:
    ops: list[Op] = []
    count = max(round(TPCH_STREAMS * min(size, 1.0)), 2)
    streams = tpch.generate_streams(count, _tpch_scale(size), seed=seed)
    for stream in streams:
        ops.extend(Op(SQL, query.sql) for query in stream)
        ops.append(Op(MAINTAIN))
    return ops


def _tpch_build(seed: int, size: float, mode: str) -> Database:
    catalog = tpch.build_catalog(_tpch_scale(size), seed=seed)
    cache = max(int(TPCH_CACHE_BYTES * size), 64 * 1024)
    return Database(_config(mode, cache), catalog=catalog)


# ----------------------------------------------------------------------
# sky_warm and served_mix share the SkyServer substrate
# ----------------------------------------------------------------------
SKY_ROWS = 60_000
SKY_CONES = 48
SKY_CONE_RADIUS = 0.4
SKY_STATEMENTS = 800
SKY_CACHE_BYTES = 64 * 1024 * 1024
SERVED_SHORT = 236
SERVED_SCANS = 26
SCAN_STATEMENT = "SELECT * FROM photoobj LIMIT 2000"


def _sky_rows(size: float) -> int:
    return max(int(SKY_ROWS * size), 2000)


def _sky_statements(seed: int, count: int) -> list[str]:
    """``count`` statements from the paper's pattern mix (Fig. 6) over
    a Zipf-skewed pool of cones: a few sky regions take most of the
    traffic, the tail is touched rarely.

    The cones share one radius and lie in the dense middle of the
    survey stripe, so they hold similar numbers of objects whatever the
    seed: an unrecycled ``LIMIT 10`` join stops after scanning about
    ``10 / cone rows`` of ``photoobj``, and the off-leg should cost the
    same whichever cone the seed makes popular."""
    rng = np.random.default_rng([seed, 0x5C7])
    cones = [(round(float(rng.uniform(194.0, 196.0)), 2),
              round(float(rng.uniform(1.75, 3.25)), 2), SKY_CONE_RADIUS)
             for _ in range(SKY_CONES)]
    weights = 1.0 / np.arange(1, SKY_CONES + 1)
    weights /= weights.sum()
    statements = []
    for _ in range(count):
        cone = cones[int(rng.choice(SKY_CONES, p=weights))]
        draw = rng.random()
        if draw < 0.70:
            sql = sky_queries.primary_pattern(cone)
        elif draw < 0.82:
            mag = float(rng.choice([19.0, 20.0, 21.0]))
            sql = sky_queries.magnitude_variant(cone, mag=mag)
        elif draw < 0.92:
            sql = sky_queries.type_histogram_variant(cone)
        else:
            limit = int(rng.choice([5, 10, 20]))
            sql = sky_queries.nearest_variant(cone, limit=limit)
        statements.append(sql)
    return statements


def _sky_ops(seed: int, size: float) -> list[Op]:
    count = max(int(SKY_STATEMENTS * size), 20)
    return [Op(SQL, sql) for sql in _sky_statements(seed, count)]


def _sky_build(seed: int, size: float, mode: str) -> Database:
    catalog = skyserver.build_catalog(_sky_rows(size), seed=seed)
    return Database(_config(mode, SKY_CACHE_BYTES), catalog=catalog)


def _served_ops(seed: int, size: float) -> list[Op]:
    short = max(int(SERVED_SHORT * size), 18)
    scans = max(int(SERVED_SCANS * size), 2)
    statements = iter(_sky_statements(seed, short))
    rng = np.random.default_rng([seed, 0x5CA])
    scan_at = set(rng.choice(short + scans, size=scans,
                             replace=False).tolist())
    ops = [Op(SCAN, SCAN_STATEMENT) if index in scan_at
           else Op(SQL, next(statements))
           for index in range(short + scans)]
    return ops


# ----------------------------------------------------------------------
# ts_append
# ----------------------------------------------------------------------
TS_INITIAL_ROWS = 60_000
TS_BATCH_ROWS = 1200
TS_CYCLES = 12
TS_DASHBOARD_REPEATS = 3
TS_CACHE_BYTES = 64 * 1024 * 1024


def _ts_rows(size: float) -> tuple[int, int]:
    return (max(int(TS_INITIAL_ROWS * size), 1000),
            max(int(TS_BATCH_ROWS * size), 50))


def _ts_ops(seed: int, size: float) -> list[Op]:
    initial, batch = _ts_rows(size)
    ops: list[Op] = []
    rows = initial
    for cycle in range(TS_CYCLES):
        ops.append(Op(APPEND, batch=cycle, start_row=rows, rows=batch))
        rows += batch
        # Two join rollups per cycle, not one: with a single one the
        # costliest statement was 1 op in 19 and p95 sat on the edge of
        # its mode (one op's latency); at 2 in 22 it sits in the middle.
        dashboard = [
            timeseries.range_scan(rows - batch, rows),
            timeseries.sensor_rollup(),
            timeseries.site_rollup(rows),
            timeseries.alerts(rows),
            timeseries.hot_sensors(rows),
            timeseries.range_scan(0, initial // 2),
            timeseries.site_rollup(initial),
        ]
        ops.extend(Op(SQL, sql) for sql in
                   dashboard * TS_DASHBOARD_REPEATS)
    return ops


def _ts_build(seed: int, size: float, mode: str) -> Database:
    initial, _ = _ts_rows(size)
    catalog = timeseries.build_catalog(initial, seed=seed)
    return Database(_config(mode, TS_CACHE_BYTES), catalog=catalog)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="tpch_pressure",
        why="TPC-H qgen streams with the recycler cache at a quarter of"
            " what they materialise: the engine is the bill and"
            " admission/replacement run (paper Fig. 7/9)",
        make_ops=_tpch_ops,
        build=_tpch_build, priming=_no_priming),
    Workload(
        name="sky_warm",
        why="SkyServer pattern mix, every statement primed: full-plan"
            " hits, so lex/parse/bind/optimize/match are the bill and"
            " the engine is not (paper Fig. 6 steady state)",
        make_ops=_sky_ops,
        build=_sky_build, priming=_distinct_statements),
    Workload(
        name="ts_append",
        why="appends beside dashboard reads on one table: every append"
            " invalidates the cache, so write cost, invalidation and"
            " cold re-reads show next to warm reads",
        make_ops=_ts_ops, build=_ts_build,
        priming=_no_priming),
    Workload(
        name="served_mix",
        why="short statements over TCP and streamed scans over HTTP"
            " against a server process: the only workload that crosses"
            " decode, admission, chunk encoding and send",
        make_ops=_served_ops,
        build=_sky_build, priming=_distinct_statements, served=True),
)}
