"""Harness tests: the benchmark's own estimators, determinism of the
workloads, and a tiny-scale smoke of every workload — collected by the
tier-1 command (``python -m pytest -x -q`` from the repository root).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import harness, served, stats, tracing  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

TINY = 0.04
SEED = 20130408


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))            # 1..20
    assert stats.percentile(values, 0.50) == 10
    assert stats.percentile(values, 0.95) == 19
    assert stats.percentile(values, 1.0) == 20
    assert stats.percentile([7.0], 0.95) == 7.0
    # the load generator's percentile rounds q*(n-1) and picks another
    # sample: for 1..4 its median is the 3rd value (round(1.5) = 2 by
    # banker's rounding, index 2), nearest rank gives the 2nd
    from repro.harness.loadgen import percentile as loadgen_percentile
    assert stats.percentile([1, 2, 3, 4], 0.5) == 2
    assert loadgen_percentile([1, 2, 3, 4], 0.5) == 3
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_per_op_median_reduces_across_passes():
    passes = [[1.0, 9.0, 5.0], [2.0, 1.0, 5.0], [3.0, 2.0, 50.0]]
    assert stats.per_op_median(passes) == [2.0, 2.0, 5.0]
    with pytest.raises(ValueError):
        stats.per_op_median([[1.0], [1.0, 2.0]])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_lists_follow_the_seed(name):
    workload = WORKLOADS[name]
    first = workload.make_ops(SEED, TINY)
    assert first == workload.make_ops(SEED, TINY)
    if name != "ts_append":
        # ts_append's statements depend on the sizes only; its seed
        # decides the data
        assert first != workload.make_ops(SEED + 1, TINY)
    assert len(workload.make_ops(SEED, 1.0)) >= 260


@pytest.mark.parametrize("name", ["tpch_pressure", "sky_warm",
                                  "ts_append"])
def test_in_process_smoke_repeats_exactly(name):
    workload = WORKLOADS[name]
    ops = workload.make_ops(SEED, TINY)
    on = harness.run_pass(workload, ops, SEED, TINY, harness.MODE_ON)
    again = harness.run_pass(workload, ops, SEED, TINY, harness.MODE_ON,
                             traced=True)
    off = harness.run_pass(workload, ops, SEED, TINY, harness.MODE_OFF)
    verdict = harness.Verdict()
    harness.check_passes(off, [on, off], verdict)
    harness.check_passes(on, [again], verdict, compare_records=True)
    assert verdict.failed == 0, verdict.problems
    assert verdict.attempted == 3 * len(ops)
    # exact counters repeat, traced or not
    assert on.counters == again.counters
    assert all(value > 0 for value in on.latencies)
    metrics = harness.end_to_end(ops, [on, again], [off])
    assert set(metrics) == {"setup_s", "qps", "p50_ms", "p95_ms",
                            "recycle_speedup", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())
    layers = harness.layer_metrics(ops, [on], [again])
    assert set(layers) <= set(harness.LAYER_UNITS)
    assert layers["engine.execute_us"] > 0
    assert layers["harness.ops"] == len(ops)
    if name == "ts_append":
        assert layers["columnar.append_ms"] > 0
        assert layers["recycler.ddl_evicted"] > 0
    else:
        assert layers["columnar.append_ms"] == 0


def test_a_wrong_result_is_counted():
    workload = WORKLOADS["sky_warm"]
    ops = workload.make_ops(SEED, TINY)
    good = harness.run_pass(workload, ops, SEED, TINY, harness.MODE_ON)
    bad = harness.run_pass(workload, ops, SEED, TINY, harness.MODE_ON)
    bad.checksums[3] = "0" * 16
    bad.errors[5] = "QueryTimeout: injected"
    verdict = harness.Verdict()
    harness.check_passes(good, [bad], verdict)
    assert verdict.failed == 2
    assert verdict.attempted == len(ops)


def test_tracing_restores_every_entry_point():
    import repro.exec_service as exec_service
    import repro.sql as sql
    import repro.sql.parser as parser
    before = (exec_service.execute_plan, exec_service.validate_plan,
              sql.parse, sql.bind, parser.tokenize)
    workload = WORKLOADS["sky_warm"]
    db = workload.build(SEED, TINY, harness.MODE_ON)
    try:
        tracer = tracing.Tracer()
        with tracing.installed(db, tracer):
            tracer.op = 0
            db.sql("SELECT count(*) AS n FROM photoobj")
        assert "prepare" not in vars(db.recycler)
    finally:
        db.close()
    assert before == (exec_service.execute_plan,
                      exec_service.validate_plan, sql.parse, sql.bind,
                      parser.tokenize)
    assert not tracer.missing
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"columnar.snapshot", "sql.lex", "sql.parse", "sql.bind",
            "plan.validate", "plan.optimize", "recycler.prepare",
            "recycler.match", "engine.execute",
            "recycler.finalize"} <= names
    # every span but the roots names the span that caused it
    for span in tracer.spans:
        parent = span[tracing.PARENT]
        assert parent == -1 or \
            tracer.spans[parent][tracing.START] <= span[tracing.START]


def _shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    return set(os.listdir(shm)) if shm.is_dir() else set()


def _child_processes() -> list[str]:
    """Every process whose parent is this one, zombies included."""
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:        # gone while we looked
                continue
            # "pid (comm) state ppid ..."; comm may hold spaces
            state, ppid = stat.rsplit(")", 1)[1].split()[:2]
            if int(ppid) == os.getpid():
                children.append(f"{entry.name}:{state}")
    return children


def test_served_smoke_leaves_nothing_behind():
    workload = WORKLOADS["served_mix"]
    ops = workload.make_ops(SEED, TINY)
    segments = _shm_segments()
    before = _child_processes()
    wire = served.run_wire_pass(workload, ops, SEED, TINY,
                                harness.MODE_ON)
    local = harness.run_pass(workload, ops, SEED, TINY, harness.MODE_ON)
    assert not wire.errors
    assert len(wire.latencies) == len(ops)
    # over the wire or in process, the recycler did the same thing
    assert [r[:4] for r in wire.records] == \
        [r[:4] for r in local.records]
    assert wire.counters["rejected"] == 0
    assert wire.peak_rss_mb > 0
    assert _child_processes() == before
    assert _shm_segments() == segments


def test_server_child_is_reaped_when_the_pass_fails(monkeypatch):
    workload = WORKLOADS["served_mix"]
    ops = workload.make_ops(SEED, TINY)

    def broken(self):
        raise RuntimeError("injected")

    before = _child_processes()
    monkeypatch.setattr(served.ServerChild, "cpu_seconds", broken)
    with pytest.raises(RuntimeError, match="injected"):
        served.run_wire_pass(workload, ops, SEED, TINY, harness.MODE_ON)
    assert _child_processes() == before


def _run_cli(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *arguments], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60, check=False)


def _session_processes(session: int) -> list[str]:
    """Every process, zombies included, of the session ``session``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            if int(fields[3]) == session:      # state ppid pgrp session
                found.append(f"{entry.name}:{fields[0]}")
    return found


def test_cli_leaves_no_process_behind(tmp_path):
    """The moment the served run has exited nothing it started is left,
    not even a helper on its way out.  The run gets a session of its
    own, so that what it leaves can be told from everything else."""
    command = [sys.executable, "bench/run.py", "--workload", "served_mix",
               "--seed", "5", "--seconds", "1", "--size", str(TINY),
               "--trace", "0"]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    output, errors = process.communicate(timeout=60)
    assert process.returncode == 0, errors
    assert _session_processes(process.pid) == []
    assert json.loads(output.strip().splitlines()[-1])["correct"] is True


def test_cli_prints_the_contract_line(tmp_path):
    done = _run_cli(ROOT, "--workload", "sky_warm", "--seed", "5",
                    "--seconds", "1", "--size", str(TINY), "--trace",
                    "1", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == \
        {metric["name"] for metric in declared["per_layer"]}
    for metric in declared["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == \
            metric["unit"]
    assert (tmp_path / "trace_sky_warm.jsonl").stat().st_size > 0


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_cli(tmp_path, "--workload", "ts_append", "--seed", "5",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
