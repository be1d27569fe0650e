"""Real-threads throughput: concurrent sessions on a shared recycler.

The wall-clock counterpart of bench_fig7: the same SkyServer stream
setup, but executed by actual OS threads (one session per stream) with
1/2/4/8/16 simultaneous query slots, a 16/32/64-worker scale-out sweep,
a coarse-vs-striped lock comparison (``lock_stripes=1`` reproduces the
PR 1 single-``RLock`` layout), and a process-sharded sweep
(``db.shard_runtime``: cold plans execute in worker processes over
shared-memory tables).  Reports queries/second per worker count plus a
``scaling_efficiency`` ratio (qps@8 / 8·qps@1) for the thread and
process modes, and verifies every configuration returns byte-identical
results to the serial run — recycling plus real concurrency must never
change answers.

A note on the striping numbers: CPython's GIL serializes the recycler's
pure-Python critical sections whichever lock guards them, so the stripe
win on this interpreter shows up as reduced lock *wait* (stall) rather
than a multiple of throughput; the structural gains (store admissions
never queue behind another plan's rewrite) are what scale on free-
threaded builds.
"""

from __future__ import annotations

import importlib.util
import os
import pathlib

from conftest import FULL, save_result

from repro import Database, RecyclerConfig
from repro.columnar import INT64
from repro.expr import nodes as e
from repro.expr.analysis import split_conjuncts
from repro.harness.concurrent import (ConcurrentStreamRunner,
                                      format_throughput_table)
from repro.plan.logical import Join, Limit, Project, Select, Sort, TopN
from repro.workloads.skyserver import build_catalog, generate_workload
from repro.workloads import tpch


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


def _fresh_db(num_rows, **config_kwargs):
    return Database(RecyclerConfig(mode="spec", **config_kwargs),
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
    1/4/8 worker *processes* (cold plans execute in workers over
    shared-memory tables; the recycler stays authoritative in the
    parent).  Byte-identical to the serial reference at every width."""
    params = _params()
    streams = _streams(params["n_streams"], params["per_stream"])
    reference = _serial_reference(params["num_rows"], streams)

    def sweep():
        results = []
        for workers in (1, 4, 8):
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


def test_bench_striping_vs_coarse(benchmark):
    """8-worker throughput: PR 1 coarse-lock layout (``lock_stripes=1``)
    vs. the striped default, byte-identical results required of both."""
    params = _params()
    streams = _streams(params["n_streams"], params["per_stream"])
    reference = _serial_reference(params["num_rows"], streams)

    def compare():
        out = {}
        for label, stripes in (("coarse", 1), ("striped", 16)):
            db = _fresh_db(params["num_rows"], lock_stripes=stripes)
            runner = ConcurrentStreamRunner(db, workers=8,
                                            keep_results=True)
            out[label] = runner.run(streams)
        return out

    out = benchmark.pedantic(compare, rounds=1, iterations=1)
    for label, res in out.items():
        for trace in res.traces:
            assert trace.result.table.to_rows() == \
                reference[(trace.stream, trace.index)], \
                (label, trace.stream, trace.index)
    coarse = out["coarse"].throughput_qps
    striped = out["striped"].throughput_qps
    speedup = striped / coarse if coarse else 0.0
    benchmark.extra_info["qps_coarse"] = round(coarse, 1)
    benchmark.extra_info["qps_striped"] = round(striped, 1)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    save_result("concurrent_striping.txt", "\n".join([
        "striped vs coarse recycler lock (8 workers, SkyServer)",
        "=" * 54,
        f"coarse  (stripes=1):  {coarse:9.1f} qps"
        f"  stall_s={out['coarse'].total_stall_seconds():.3f}",
        f"striped (stripes=16): {striped:9.1f} qps"
        f"  stall_s={out['striped'].total_stall_seconds():.3f}",
        f"speedup: {speedup:.2f}x",
    ]))
    # correctness is asserted above; the single-round wall-clock ratio
    # is reported, not asserted (too noisy for a hard gate — see the
    # module docstring on GIL-bound expectations)
    assert coarse > 0 and striped > 0


# ----------------------------------------------------------------------
# canonicalization match rate
# ----------------------------------------------------------------------
_SAFE_INT = 2 ** 31  # floats this small round-trip exactly


def _floatify(expr):
    """Respell integer comparison literals as floats (``1`` -> ``1.0``)
    — the client-side spelling drift the normalize pass absorbs."""
    if isinstance(expr, (e.And, e.Or)):
        return type(expr)([_floatify(a) for a in expr.args])
    if isinstance(expr, e.Not):
        return e.Not(_floatify(expr.arg))
    if isinstance(expr, e.Cmp):
        def lit(x):
            if isinstance(x, e.Lit) and x._dtype is INT64 \
                    and abs(x.value) < _SAFE_INT:
                return e.Lit(float(x.value))
            return x
        return e.Cmp(expr.op, lit(expr.left), lit(expr.right))
    return expr


def _deshape(plan, variant, snapshot):
    """Rewrite ``plan`` into an equivalent but differently-*shaped*
    plan, cycling four inverse-canonical transform sets: stacked
    filters + filters hoisted above joins, float literal spelling,
    ``TopN`` written as ``Sort``+``Limit`` + a redundant outer
    ``Limit``, and an identity projection wrapper.  Simulates the same
    query arriving from clients that phrase it differently."""
    def rec(node):
        children = [rec(c) for c in node.children]
        if any(n is not o for n, o in zip(children, node.children)):
            node = node.with_children(children)
        if variant % 4 == 0:
            if isinstance(node, Select):
                conjuncts = split_conjuncts(node.predicate)
                if len(conjuncts) > 1:
                    out = node.child
                    for conjunct in reversed(conjuncts):
                        out = Select(out, conjunct)
                    return out
            if isinstance(node, Join) and node.kind == "inner":
                predicates = []
                left, right = node.left, node.right
                if isinstance(left, Select):
                    predicates.append(left.predicate)
                    left = left.child
                if isinstance(right, Select):
                    predicates.append(right.predicate)
                    right = right.child
                if predicates:
                    out = Join(left, right, node.kind, node.left_keys,
                               node.right_keys, node.extra)
                    for predicate in predicates:
                        out = Select(out, predicate)
                    return out
        if variant % 4 in (1, 3) and isinstance(node, Select):
            return Select(node.child, _floatify(node.predicate))
        if variant % 4 == 2:
            if isinstance(node, TopN):
                return Limit(Sort(node.child, node.sort_keys),
                             node.limit, node.offset)
            if isinstance(node, Limit):
                return Limit(Limit(node.child,
                                   node.limit + node.offset),
                             node.limit, node.offset)
        return node

    out = rec(plan)
    if variant % 4 == 3:
        names = out.output_schema(snapshot).names
        out = Project(out, [(n, e.Col(n)) for n in names])
    return out


def _match_rate_replay(make_db, queries, reference):
    """Serial deshaped replay (single session — matched/inserted node
    counts are only deterministic without concurrent interleaving).
    Returns the optimizer summary; asserts byte-identical results."""
    db = make_db()
    snapshot = db.catalog.snapshot()
    for index, query in enumerate(queries):
        plan = _deshape(db.plan(query.sql), index, snapshot)
        result = db.execute(plan, label=query.label)
        assert result.table.to_rows() == reference[index], \
            (index, query.label)
    summary = db.summary()["optimizer"]
    db.close()
    return summary


def test_bench_match_rate(benchmark):
    """Recycler match rate on deshaped SkyServer + TPC-H replays,
    canonicalizing optimizer on vs. off (the issue's headline metric:
    equivalent-but-differently-shaped plans must stop missing)."""
    if FULL:
        sky_rows, sky_queries, tpch_sf = 60000, 48, 0.02
    else:
        sky_rows, sky_queries, tpch_sf = 8000, 32, 0.01
    workloads = {
        "skyserver": (
            lambda **kw: Database(
                RecyclerConfig(mode="spec", **kw),
                catalog=build_catalog(num_rows=sky_rows)),
            generate_workload(sky_queries)),
        "tpch": (
            lambda **kw: Database(
                RecyclerConfig(mode="spec", **kw),
                catalog=tpch.build_catalog(scale_factor=tpch_sf)),
            tpch.generate_stream(0, scale_factor=tpch_sf)
            + tpch.generate_stream(1, scale_factor=tpch_sf)),
    }

    references = {}
    for name, (make_db, queries) in workloads.items():
        ref_db = make_db()
        references[name] = [ref_db.sql(query.sql).table.to_rows()
                            for query in queries]
        ref_db.close()

    def replay():
        rates = {}
        for name, (make_db, queries) in workloads.items():
            for label, enabled in (("optimized", True),
                                   ("legacy", False)):
                rates[f"{name}_{label}"] = _match_rate_replay(
                    lambda: make_db(optimize_plans=enabled),
                    queries, references[name])
        return rates

    rates = benchmark.pedantic(replay, rounds=1, iterations=1)
    lines = ["canonicalization match rate (deshaped replays)",
             "=" * 47]
    for name in workloads:
        optimized = rates[f"{name}_optimized"]
        legacy = rates[f"{name}_legacy"]
        # node-level match rate must improve on every workload, and
        # full-plan hits must never get worse
        assert optimized["match_rate"] > legacy["match_rate"], \
            (name, rates)
        assert optimized["plan_hit_rate"] >= legacy["plan_hit_rate"], \
            (name, rates)
        benchmark.extra_info[f"match_rate_{name}"] = \
            round(optimized["match_rate"], 4)
        benchmark.extra_info[f"match_rate_{name}_legacy"] = \
            round(legacy["match_rate"], 4)
        benchmark.extra_info[f"plan_hit_rate_{name}"] = \
            round(optimized["plan_hit_rate"], 4)
        lines.append(
            f"{name:10s}  match_rate={optimized['match_rate']:.4f}"
            f" (legacy {legacy['match_rate']:.4f})"
            f"  plan_hit_rate={optimized['plan_hit_rate']:.4f}"
            f" (legacy {legacy['plan_hit_rate']:.4f})")
    # the deshaped SkyServer stream repeats its primary pattern across
    # all four shape variants: with canonicalization the repeats are
    # full-plan hits, without it each variant inserts its own subtree
    assert rates["skyserver_optimized"]["plan_hit_rate"] > \
        rates["skyserver_legacy"]["plan_hit_rate"], rates
    save_result("match_rate.txt", "\n".join(lines))


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
