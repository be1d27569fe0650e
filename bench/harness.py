"""Passes, the measuring loops, and the reduction to metrics.

One *pass* builds a fresh database (set-up, timed as such), replays the
workload's op list once with one closed-loop client, and records per op
its latency, a checksum of its result and the recycler's exact
counters.  *On*-passes run the recycler in ``spec`` mode, *off*-passes
in ``off`` mode; they alternate until the run's time is used.  Every
latency is divided by the host slowdown measured around it
(:mod:`bench.hostspeed`), and every timing metric is computed from the
per-op median over passes of the same kind
(:func:`bench.stats.per_op_median`).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.workloads import timeseries

from . import stats
from .hostspeed import SpeedMeter
from .tracing import Tracer, installed, root_durations, self_times
from .workloads import APPEND, MAINTAIN, SCAN, SQL, Op, Workload

MODE_ON = "spec"
MODE_OFF = "off"

#: a run makes at least / at most this many on+off pairs (or
#: untraced+traced rounds), whatever ``--seconds`` says
MIN_ROUNDS = 2
MAX_ROUNDS = 8
#: a new round starts only if, at the pace of the last one, it would end
#: within this multiple of ``--seconds``
OVERRUN = 1.1


@dataclass
class PassResult:
    mode: str
    #: set-up and per-op latencies, seconds at reference host speed
    setup_s: float
    latencies: list[float]
    #: the sum of the latencies as the clock read them
    raw_seconds: float
    #: median host slowdown over the pass
    slowdown: float
    #: per op: checksum of the result, None for ops without one
    checksums: list[str | None]
    #: per op: ``(num_reused, num_matched, num_inserted,
    #: num_materialized, total_cost, rows, graph_nodes)`` or None
    records: list[tuple | None]
    #: ops that raised or were refused, with the reason
    errors: dict[int, str] = field(default_factory=dict)
    #: counters read after the last op (exact, see ``read_counters``)
    counters: dict[str, float] = field(default_factory=dict)
    #: traced passes: the spans, and the host slowdown around each op
    spans: list[list] | None = None
    op_slowdown: list[float] | None = None
    #: peak RSS of the process that hosted the database, MiB
    peak_rss_mb: float = 0.0
    #: served passes only: per op seconds to the first row, and the
    #: CPU seconds the server child and the generator spent on the ops
    ttfb: list[float] | None = None
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    chunks: int = 0


def table_checksum(table) -> str:
    """Column names, types and row bytes of a result, as a digest."""
    digest = hashlib.blake2b(digest_size=8)
    schema = table.schema
    for name, dtype in zip(schema.names, schema.types):
        digest.update(f"{name}:{dtype.name};".encode())
        column = table.column(name)
        if column.dtype == object:
            digest.update("\x1f".join(map(str, column.tolist()))
                          .encode())
        else:
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def own_peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _record_tuple(result) -> tuple:
    record = result.record
    return (record.num_reused, record.num_matched, record.num_inserted,
            record.num_materialized, record.total_cost,
            result.table.num_rows, record.graph_nodes)


def read_counters(db) -> dict[str, float]:
    """The exact counters the per-layer metrics report, read from
    ``Database.summary()`` (set-up's priming statements included)."""
    summary = db.summary()
    cache = summary["cache"]
    return {
        "cache_admitted": cache.admitted,
        "cache_evicted": cache.evicted,
        "cache_rejected": cache.rejected,
        "cache_reuses": cache.reuses,
        "cache_used_bytes": summary["cache_used_bytes"],
        "ddl_evicted": summary["catalog"]["entries_evicted"],
        "rewrites": sum(summary["optimizer"]["rewrites"].values()),
        "stats_merges":
            summary["maintenance"]["stats_incremental_merges"],
        "queries": summary["queries"],
    }


def execute_op(db, op: Op, seed: int):
    """One op against an in-process database; returns the query result
    (None for ops that have none)."""
    if op.kind in (SQL, SCAN):
        return db.sql(op.text)
    if op.kind == APPEND:
        timeseries.append_unit(op.batch, op.start_row, op.rows,
                               seed)(db, None)
        return None
    if op.kind == MAINTAIN:
        db.maintain()
        return None
    raise ValueError(f"unknown op kind {op.kind!r}")


def run_pass(workload: Workload, ops: list[Op], seed: int, size: float,
             mode: str, traced: bool = False) -> PassResult:
    """One in-process pass: set up, replay ``ops`` once, tear down."""
    gc.collect()
    clock = time.perf_counter
    meter = SpeedMeter()
    meter.sample()
    setup_started = clock()
    db = workload.build(seed, size, mode)
    try:
        for statement in workload.priming(ops):
            db.sql(statement)
            meter.sample_if_due()
        setup_end = clock()
        meter.sample()
        setup_s = meter.normalised(setup_started, setup_end)

        tracer = Tracer() if traced else None
        spans: list[tuple[float, float]] = []
        checksums: list[str | None] = []
        records: list[tuple | None] = []
        errors: dict[int, str] = {}
        with installed(db, tracer) if traced else contextlib.nullcontext():
            for index, op in enumerate(ops):
                meter.sample_if_due()
                call = execute_op
                if tracer is not None:
                    tracer.op = index
                    call = tracer.wrap("op." + op.kind, execute_op)
                result = None
                begin = clock()
                try:
                    result = call(db, op, seed)
                except Exception as exc:  # an op failed: count it, go on
                    errors[index] = f"{type(exc).__name__}: {exc}"
                spans.append((begin, clock()))
                # checksumming is the benchmark's work, not the
                # program's: outside the op's timed region
                if result is None:
                    checksums.append(None)
                    records.append(None)
                else:
                    checksums.append(table_checksum(result.table))
                    records.append(_record_tuple(result))
            meter.sample()
        return PassResult(
            mode=mode, setup_s=setup_s,
            latencies=[meter.normalised(*span) for span in spans],
            raw_seconds=sum(end - begin for begin, end in spans),
            slowdown=meter.median_slowdown(),
            checksums=checksums, records=records, errors=errors,
            counters=read_counters(db),
            spans=tracer.spans if tracer is not None else None,
            op_slowdown=[meter.slowdown(*span) for span in spans],
            peak_rss_mb=own_peak_rss_mb())
    finally:
        db.close()


# ----------------------------------------------------------------------
# the measuring loops
# ----------------------------------------------------------------------
def run_rounds(seconds: float, round_fn: Callable[[], None]) -> None:
    """Call ``round_fn`` until ``seconds`` are used.  A new round starts
    only if it is projected to fit, so a slow host shortens the run's
    sample instead of lengthening the run."""
    started = time.perf_counter()
    rounds = 0
    while True:
        round_started = time.perf_counter()
        round_fn()
        rounds += 1
        now = time.perf_counter()
        if rounds >= MAX_ROUNDS:
            return
        projected = (now - started) + (now - round_started)
        if rounds >= MIN_ROUNDS and projected > seconds * OVERRUN:
            return


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


def check_passes(reference: PassResult, passes: list[PassResult],
                 verdict: Verdict, compare_records: bool = False) -> None:
    """Count every op that raised, was refused, or whose result differs
    from ``reference``'s result for the same op."""
    for result in passes:
        verdict.attempted += len(result.latencies)
        for index in range(len(result.latencies)):
            if index in result.errors:
                verdict.failed += 1
                verdict.note(f"op {index} ({result.mode}):"
                             f" {result.errors[index]}")
            elif result.checksums[index] != reference.checksums[index]:
                verdict.failed += 1
                verdict.note(f"op {index} ({result.mode}): result"
                             " differs from the reference pass")
            elif compare_records and \
                    result.records[index] != reference.records[index]:
                verdict.failed += 1
                verdict.note(
                    f"op {index}: traced counters"
                    f" {result.records[index]} differ from untraced"
                    f" {reference.records[index]}")


def describe_passes(ops: list[Op],
                    groups: dict[str, list[PassResult]]) -> None:
    """Print the sample counts beside the timings: passes per kind,
    ops per pass, what the clock read and how slow the host was."""
    for label, passes in groups.items():
        raw = " ".join(f"{p.raw_seconds:.2f}" for p in passes)
        slow = " ".join(f"{p.slowdown:.2f}" for p in passes)
        print(f"# {len(passes)} {label} passes x {len(ops)} ops;"
              f" clock seconds per pass: {raw};"
              f" host slowdown: {slow}", flush=True)


def end_to_end(ops: list[Op], on: list[PassResult],
               off: list[PassResult]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, from per-op medians at reference host
    speed (set-up: median over the on-passes)."""
    lat = stats.per_op_median([p.latencies for p in on])
    lat_off = stats.per_op_median([p.latencies for p in off])
    total = sum(lat)
    return {
        "setup_s": (statistics.median([p.setup_s for p in on]), "s"),
        "qps": (len(ops) / total, "1/s"),
        "p50_ms": (stats.percentile(lat, 0.50) * 1e3, "ms"),
        "p95_ms": (stats.percentile(lat, 0.95) * 1e3, "ms"),
        "recycle_speedup": (sum(lat_off) / total, "ratio"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in on + off), "MiB"),
    }


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: every per-layer metric the benchmark reports, with its unit; a
#: workload that does not exercise a layer reports 0 for it
LAYER_UNITS: dict[str, str] = {
    "sql.lex_us": "us", "sql.parse_us": "us", "sql.bind_us": "us",
    "plan.validate_us": "us", "plan.optimize_us": "us",
    "plan.rewrites_per_op": "count",
    "recycler.match_us": "us", "recycler.rewrite_us": "us",
    "recycler.finalize_us": "us", "recycler.match_rate": "ratio",
    "recycler.plan_hit_rate": "ratio",
    "recycler.reuses_per_op": "count",
    "recycler.stores_per_op": "count", "recycler.graph_nodes": "count",
    "recycler.cache_admitted": "count",
    "recycler.cache_evicted": "count",
    "recycler.cache_rejected": "count",
    "recycler.cache_reuses": "count",
    "recycler.reuse_per_admit": "ratio",
    "recycler.cache_used_mb": "MiB", "recycler.maintain_us": "us",
    "recycler.invalidate_us": "us", "recycler.ddl_evicted": "count",
    "engine.execute_us": "us", "engine.exec_share": "ratio",
    "engine.cost_per_op": "cost", "engine.rows_out_per_op": "count",
    "columnar.snapshot_us": "us", "columnar.append_ms": "ms",
    "columnar.append_rows_per_s": "1/s",
    "columnar.stats_merges": "count",
    "exec_service.glue_us": "us",
    "server.tcp_short_us": "us", "server.http_short_us": "us",
    "server.tcp_scan_ms": "ms", "server.http_scan_ms": "ms",
    "server.wire_overhead_us": "us", "server.ttfb_ms": "ms",
    "server.scan_rows_per_s": "1/s",
    "server.encode_us_per_row": "us", "server.decode_us_per_row": "us",
    "server.cpu_ms_per_op": "ms", "server.client_cpu_ms_per_op": "ms",
    "server.rejected": "count", "server.chunks_per_scan": "count",
    "harness.trace_overhead_ratio": "ratio",
    "harness.host_slowdown": "ratio", "harness.ops": "count",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_seconds(ops: list[Op], traced: list[PassResult]
                   ) -> tuple[dict[str, float], float]:
    """Per span name, the summed self time (per-op medians over the
    traced passes, at reference host speed); and the traced passes'
    summed root-span time, reduced the same way."""
    num_ops = len(ops)
    names: set[str] = set()
    per_pass = []
    roots = []
    for result in traced:
        slow = result.op_slowdown
        times = self_times(result.spans, num_ops)
        names.update(times)
        per_pass.append({name: [v / s for v, s in zip(values, slow)]
                         for name, values in times.items()})
        roots.append([v / s for v, s in
                      zip(root_durations(result.spans, num_ops), slow)])
    zeros = [0.0] * num_ops
    seconds = {name: sum(stats.per_op_median(
        [times.get(name, zeros) for times in per_pass]))
        for name in names}
    return seconds, sum(stats.per_op_median(roots))


def layer_metrics(ops: list[Op], untraced: list[PassResult],
                  traced: list[PassResult]) -> dict[str, float]:
    """Per-layer metrics of the in-process layers: span self times from
    the traced passes, exact counters from the last traced pass (equal
    to the untraced ones, which ``check_passes`` verifies)."""
    seconds, traced_total = _layer_seconds(ops, traced)
    queries = [i for i, op in enumerate(ops) if op.kind in (SQL, SCAN)]
    appends = [op for op in ops if op.kind == APPEND]
    maintains = sum(op.kind == MAINTAIN for op in ops)
    n_sql = len(queries)

    def per_query_us(name: str) -> float:
        return _ratio(seconds.get(name, 0.0), n_sql) * 1e6

    last = traced[-1]
    records = [last.records[i] for i in queries
               if last.records[i] is not None]
    matched = sum(r[1] for r in records)
    inserted = sum(r[2] for r in records)
    counters = last.counters
    untraced_total = sum(
        stats.per_op_median([p.latencies for p in untraced]))
    query_seconds = seconds.get("op.sql", 0.0) + \
        seconds.get("op.scan", 0.0)
    append_seconds = seconds.get("columnar.append", 0.0)
    # what the spans of a query add up to, glue included
    query_total = query_seconds + sum(
        seconds.get(name, 0.0) for name in (
            "columnar.snapshot", "sql.lex", "sql.parse", "sql.bind",
            "plan.validate", "plan.optimize", "recycler.prepare",
            "recycler.match", "engine.execute", "recycler.finalize",
            "recycler.abandon"))

    return {
        "sql.lex_us": per_query_us("sql.lex"),
        "sql.parse_us": per_query_us("sql.parse"),
        "sql.bind_us": per_query_us("sql.bind"),
        "plan.validate_us": per_query_us("plan.validate"),
        "plan.optimize_us": per_query_us("plan.optimize"),
        "plan.rewrites_per_op": _ratio(counters["rewrites"],
                                       counters["queries"]),
        "recycler.match_us": per_query_us("recycler.match"),
        "recycler.rewrite_us": per_query_us("recycler.prepare"),
        "recycler.finalize_us": per_query_us("recycler.finalize"),
        "recycler.match_rate": _ratio(matched, matched + inserted),
        "recycler.plan_hit_rate": _ratio(
            sum(1 for r in records if r[1] > 0 and r[2] == 0), n_sql),
        "recycler.reuses_per_op": _ratio(sum(r[0] for r in records),
                                         n_sql),
        "recycler.stores_per_op": _ratio(sum(r[3] for r in records),
                                         n_sql),
        "recycler.graph_nodes": records[-1][6] if records else 0,
        "recycler.cache_admitted": counters["cache_admitted"],
        "recycler.cache_evicted": counters["cache_evicted"],
        "recycler.cache_rejected": counters["cache_rejected"],
        "recycler.cache_reuses": counters["cache_reuses"],
        "recycler.reuse_per_admit": _ratio(counters["cache_reuses"],
                                           counters["cache_admitted"]),
        "recycler.cache_used_mb": counters["cache_used_bytes"] / 2**20,
        "recycler.maintain_us": _ratio(
            seconds.get("recycler.maintain", 0.0), maintains) * 1e6,
        "recycler.invalidate_us": _ratio(
            seconds.get("recycler.invalidate", 0.0), len(appends)) * 1e6,
        "recycler.ddl_evicted": counters["ddl_evicted"],
        "engine.execute_us": per_query_us("engine.execute"),
        "engine.exec_share": _ratio(seconds.get("engine.execute", 0.0),
                                    query_total),
        "engine.cost_per_op": _ratio(sum(r[4] for r in records), n_sql),
        "engine.rows_out_per_op": _ratio(sum(r[5] for r in records),
                                         n_sql),
        "columnar.snapshot_us": per_query_us("columnar.snapshot"),
        "columnar.append_ms": _ratio(append_seconds, len(appends)) * 1e3,
        "columnar.append_rows_per_s": _ratio(
            sum(op.rows for op in appends), append_seconds),
        "columnar.stats_merges": counters["stats_merges"],
        "exec_service.glue_us": _ratio(query_seconds, n_sql) * 1e6,
        "harness.trace_overhead_ratio": _ratio(traced_total,
                                               untraced_total),
        "harness.host_slowdown": statistics.median(
            [p.slowdown for p in untraced + traced]),
        "harness.ops": len(ops),
    }
