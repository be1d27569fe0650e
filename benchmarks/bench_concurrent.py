"""Real-threads throughput: concurrent sessions on a shared recycler.

The wall-clock counterpart of bench_fig7: the same SkyServer stream
setup, but executed by actual OS threads (one session per stream) with
1/2/4/8/16 simultaneous query slots, a 16/32/64-worker scale-out sweep,
and a process-sharded sweep (``db.shard_runtime``: cold plans execute
in worker processes over shared-memory tables), plus a warm replay of
the SQL shape battery and the TCP serving sweep.  Ungated: concurrency
scaling is outside ``bench/`` (one closed-loop client).  Reports
queries/second per worker count plus a ``scaling_efficiency`` ratio
(qps@8 / 8·qps@1) for the thread and process modes, and verifies every
configuration returns byte-identical results to the serial run —
recycling plus real concurrency must never change answers.

A note on the thread numbers: CPython's GIL serializes the engine's and
the recycler's pure-Python work whichever lock guards it, so threads
overlap only waiting; on a multi-core box the process mode is the one
that scales (README, "Execution modes and scaling").
"""

from __future__ import annotations

import importlib.util
import os
import pathlib

from conftest import FULL, save_result

from repro import Database, RecyclerConfig
from repro.harness.concurrent import (ConcurrentStreamRunner,
                                      format_throughput_table)
from repro.workloads.skyserver import build_catalog, generate_workload


def _params():
    if FULL:
        return dict(num_rows=60000, n_streams=8, per_stream=12)
    return dict(num_rows=8000, n_streams=8, per_stream=6)


def _scaleout_params():
    if FULL:
        return dict(num_rows=60000, n_streams=64, per_stream=4)
    return dict(num_rows=8000, n_streams=64, per_stream=2)


def _streams(n_streams, per_stream):
    workload = generate_workload(n_streams * per_stream)
    return [workload[i * per_stream:(i + 1) * per_stream]
            for i in range(n_streams)]


def _fresh_db(num_rows):
    return Database(RecyclerConfig(mode="spec"),
                    catalog=build_catalog(num_rows=num_rows))


def _serial_reference(num_rows, streams):
    serial_db = _fresh_db(num_rows)
    with serial_db.connect() as session:
        return {
            (stream_id, index):
                session.sql(query.sql, label=query.label).table.to_rows()
            for stream_id, stream in enumerate(streams)
            for index, query in enumerate(stream)
        }


def test_bench_concurrent(benchmark):
    params = _params()
    streams = _streams(params["n_streams"], params["per_stream"])

    # Serial reference: every query's exact rows, single session.
    reference = _serial_reference(params["num_rows"], streams)

    def sweep():
        results = []
        for workers in (1, 2, 4, 8, 16):
            db = _fresh_db(params["num_rows"])
            runner = ConcurrentStreamRunner(db, workers=workers,
                                            keep_results=True)
            results.append(runner.run(streams))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result("concurrent.txt", format_throughput_table(
        results, title="real-threads throughput (SkyServer)"))

    qps = {}
    for res in results:
        assert res.queries == params["n_streams"] * params["per_stream"]
        assert res.throughput_qps > 0
        for trace in res.traces:
            assert trace.result is not None
            assert trace.result.table.to_rows() == \
                reference[(trace.stream, trace.index)], \
                (res.workers, trace.stream, trace.index)
        qps[res.workers] = res.throughput_qps
        benchmark.extra_info[f"qps@{res.workers}"] = \
            round(res.throughput_qps, 1)
        benchmark.extra_info[f"stall_s@{res.workers}"] = \
            round(res.total_stall_seconds(), 3)
    # parallel efficiency at 8 slots: qps@8 / (8 * qps@1); 1.0 is
    # perfect scaling, ~1/8 is fully serialized (the GIL ceiling)
    benchmark.extra_info["scaling_efficiency"] = \
        round(qps[8] / (8 * qps[1]), 3)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    # the shared-result machinery must actually engage
    assert any(res.num_reused() > 0 for res in results)


def test_bench_process_mode(benchmark):
    """Process-sharded throughput: the same stream setup dispatched to
    1/2/4/8 worker *processes* (cold plans execute in workers over
    shared-memory tables; the recycler stays authoritative in the
    parent).  Byte-identical to the serial reference at every width."""
    params = _params()
    streams = _streams(params["n_streams"], params["per_stream"])
    reference = _serial_reference(params["num_rows"], streams)

    def sweep():
        results = []
        for workers in (1, 2, 4, 8):
            db = _fresh_db(params["num_rows"])
            runtime = db.shard_runtime(workers)
            runner = ConcurrentStreamRunner(db, workers=workers,
                                            keep_results=True,
                                            executor=runtime)
            results.append((runner.run(streams),
                            dict(runtime.stats)))
            db.close()
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result("concurrent_process.txt", format_throughput_table(
        [res for res, _ in results],
        title="process-sharded throughput (SkyServer)"))

    qps = {}
    for res, stats in results:
        assert res.queries == params["n_streams"] * params["per_stream"]
        for trace in res.traces:
            assert trace.result is not None
            assert trace.result.table.to_rows() == \
                reference[(trace.stream, trace.index)], \
                (res.workers, trace.stream, trace.index)
        assert stats["remote_queries"] > 0, stats
        qps[res.workers] = res.throughput_qps
        benchmark.extra_info[f"process_qps@{res.workers}"] = \
            round(res.throughput_qps, 1)
        benchmark.extra_info[f"remote_queries@{res.workers}"] = \
            stats["remote_queries"]
    benchmark.extra_info["process_scaling_efficiency"] = \
        round(qps[8] / (8 * qps[1]), 3)
    benchmark.extra_info["cpu_count"] = os.cpu_count()


# ----------------------------------------------------------------------
# SQL shape battery replay
# ----------------------------------------------------------------------
_BATTERY_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "tests" / "sql" / "test_sql_battery_shapes.py"


def _load_battery():
    """The battery lives in the test tree (250 one-line SQL cases with
    pinned shapes); import it by path so the case list stays single-
    sourced between the test suite and this bench."""
    spec = importlib.util.spec_from_file_location(
        "sql_battery_shapes", _BATTERY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_battery(benchmark):
    """Cold + warm replay of the SQL shape battery; the pinned metric is
    the warm-pass recycler match rate — every one of the 250 statements
    must fully unify with the graph on its second execution (the battery
    spans the whole SQL surface, so a new construct that fingerprints
    unstably shows up here before it shows up in production traces)."""
    battery = _load_battery()
    cases = battery.CASES

    def replay():
        db = Database(catalog=battery.build_catalog())
        references = []
        for sql, rows, cols in cases:
            cold = db.sql(sql)
            assert (cold.table.num_rows,
                    len(cold.table.schema.names)) == (rows, cols), sql
            references.append(battery.canon_rows(cold.table))
        matched = inserted = unified = 0
        for (sql, _, _), reference in zip(cases, references):
            warm = db.sql(sql)
            assert battery.canon_rows(warm.table) == reference, sql
            matched += warm.record.num_matched
            inserted += warm.record.num_inserted
            unified += warm.record.num_inserted == 0
        db.close()
        return matched, inserted, unified

    matched, inserted, unified = benchmark.pedantic(
        replay, rounds=1, iterations=1)
    match_rate = matched / (matched + inserted)
    unified_rate = unified / len(cases)
    # warm executions of identical text must never insert new nodes
    assert unified_rate == 1.0, (unified, len(cases))
    benchmark.extra_info["battery_cases"] = len(cases)
    benchmark.extra_info["battery_match_rate"] = round(match_rate, 4)
    benchmark.extra_info["battery_warm_unified_rate"] = \
        round(unified_rate, 4)
    save_result("battery.txt", "\n".join([
        "SQL shape battery warm replay",
        "=" * 29,
        f"cases:              {len(cases)}",
        f"warm match rate:    {match_rate:.4f}",
        f"fully unified:      {unified}/{len(cases)}",
    ]))


def test_bench_concurrent_scaleout(benchmark):
    """16/32/64 workers over 64 streams; byte-identical at 64."""
    params = _scaleout_params()
    streams = _streams(params["n_streams"], params["per_stream"])
    reference = _serial_reference(params["num_rows"], streams)

    def sweep():
        results = []
        for workers in (16, 32, 64):
            db = _fresh_db(params["num_rows"])
            runner = ConcurrentStreamRunner(db, workers=workers,
                                            keep_results=True)
            results.append(runner.run(streams))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result("concurrent_scaleout.txt", format_throughput_table(
        results, title="real-threads scale-out (SkyServer, 64 streams)"))
    for res in results:
        assert res.queries == params["n_streams"] * params["per_stream"]
        assert res.throughput_qps > 0
        for trace in res.traces:
            assert trace.result is not None
            assert trace.result.table.to_rows() == \
                reference[(trace.stream, trace.index)], \
                (res.workers, trace.stream, trace.index)
        benchmark.extra_info[f"qps@{res.workers}"] = \
            round(res.throughput_qps, 1)
    assert any(res.num_reused() > 0 for res in results)


def test_bench_server_mode(benchmark):
    """End-to-end serving throughput: the SkyServer stream mix driven
    through the TCP server by the closed-loop load harness — qps and
    client-observed p50/p99 through the wire, admission control, and
    the shared recycler (the serving deployment's numbers, as opposed
    to the in-process qps of test_bench_concurrent)."""
    from repro.harness.loadgen import LoadGenerator
    from repro.server import ReproServer

    params = _params()
    queries = [q.sql for stream in
               _streams(params["n_streams"], params["per_stream"])
               for q in stream]

    def serve_and_drive():
        db = _fresh_db(params["num_rows"])
        server = ReproServer(db, max_in_flight=8, max_queue=64)
        try:
            host, port = server.start()
            generator = LoadGenerator(
                host, port, queries, clients=params["n_streams"],
                queries_per_client=params["per_stream"] * 2,
                timeout=60.0)
            report = generator.run()
            # streaming phase: full-table scans consumed through the
            # chunked protocol — qps plus time-to-first-byte, the
            # latency a streaming consumer feels regardless of size
            scans = LoadGenerator(
                host, port, ["SELECT * FROM photoobj"],
                clients=4, queries_per_client=6, timeout=60.0,
                stream=True)
            return report, scans.run(), server.stats()
        finally:
            server.stop()
            db.close()

    report, scan_report, stats = benchmark.pedantic(
        serve_and_drive, rounds=1, iterations=1)
    expected = params["n_streams"] * params["per_stream"] * 2
    assert report.errors == 0
    assert report.served == expected
    assert stats["rejected"] == 0  # queue is sized for the offered load
    assert scan_report.errors == 0
    assert scan_report.served == 4 * 6
    assert stats["streams"] >= scan_report.served
    metrics = report.as_dict()
    benchmark.extra_info["server_qps"] = metrics["qps"]
    benchmark.extra_info["server_p50_ms"] = metrics["p50_ms"]
    benchmark.extra_info["server_p99_ms"] = metrics["p99_ms"]
    scan_metrics = scan_report.as_dict()
    benchmark.extra_info["server_stream_qps"] = scan_metrics["qps"]
    benchmark.extra_info["server_ttfb_ms"] = \
        scan_metrics["ttfb_p50_ms"]
    save_result("server_mode.txt", "\n".join([
        "TCP serving throughput (SkyServer, closed loop)",
        "=" * 47,
        report.format(),
        "",
        "streaming scans (chunked, 4 clients)",
        "=" * 39,
        scan_report.format(),
    ]))
