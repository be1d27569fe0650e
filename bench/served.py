"""The ``served_mix`` workload: a server child and a wire generator.

The database lives in a child process that serves it twice — the
framed TCP protocol (v2) and HTTP/JSON — and the generator is one
closed-loop thread in this process holding one connection to each.
Both processes are pinned to the same CPU: with the server in the
generator's process the GIL hand-off made passes bimodal, and with the
two processes on different CPUs the wake-up latency between them did.
On one CPU a request is a plain hand-over, which is also what a
single-core deployment sees.

A *normal* pass sends short statements over TCP and streams scans over
HTTP; a *transposed* pass swaps the transports, which gives the traced
run all four transport x size figures.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.server import HttpClient, HttpServer, ReproServer, ServerClient
from repro.server import protocol

from . import harness, stats
from .harness import PassResult
from .hostspeed import SpeedMeter, steady_allocator
from .workloads import SCAN, SCAN_STATEMENT, SQL, WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent

#: how long the generator waits for the child to come up, answer a
#: control message, or exit, before it kills it
CHILD_TIMEOUT_SECONDS = 30.0


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
# The child is a plain ``subprocess`` running this module, spoken to in
# JSON lines over its stdin and stdout.  (``multiprocessing``'s spawn
# context would also start a resource-tracker process that outlives the
# benchmark by a moment; nothing here may.)
def _serve(workload_name: str, seed: int, size: float, mode: str) -> None:
    """Child main: build the database, serve it until told to stop or
    until the generator's end of the pipe closes, then report counters
    and peak RSS.  The child inherits the generator's CPU affinity."""
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr      # nothing else may write to the pipe

    def reply(*message) -> None:
        replies.write(json.dumps(message) + "\n")
        replies.flush()

    steady_allocator()
    workload = WORKLOADS[workload_name]
    db = workload.build(seed, size, mode)
    tcp = ReproServer(db)
    http = HttpServer(db)
    try:
        reply("ready", tcp.start(), http.start())
        for message in sys.stdin:
            if message.strip() == "cpu":
                reply("cpu", time.process_time())
            else:                # "stop"
                break
        rejected = tcp.stats()["rejected"] + http.stats()["rejected"]
        reply("report", harness.read_counters(db), rejected,
              harness.own_peak_rss_mb())
    except BrokenPipeError:      # the generator is gone: just leave
        pass
    finally:
        http.stop()
        tcp.stop()
        db.close()


class ServerChild:
    """The server process, always reaped: ``stop`` asks it to exit and
    kills it if it does not; ``kill`` waits until it has ended."""

    def __init__(self, workload: Workload, seed: int, size: float,
                 mode: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]))
        self._process = subprocess.Popen(
            [sys.executable, "-m", "bench.served", workload.name,
             str(seed), repr(size), mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=env)
        try:
            _, tcp_address, http_address = self._receive("ready")
            self.tcp_address = tuple(tcp_address)
            self.http_address = tuple(http_address)
        except BaseException:
            self.kill()
            raise

    def _send(self, message: str) -> None:
        self._process.stdin.write(message + "\n")
        self._process.stdin.flush()

    def _receive(self, expected: str) -> list:
        readable, _, _ = select.select([self._process.stdout], [], [],
                                       CHILD_TIMEOUT_SECONDS)
        line = self._process.stdout.readline() if readable else None
        if line is None:
            raise TimeoutError("the server child did not answer within"
                               f" {CHILD_TIMEOUT_SECONDS:.0f} s")
        if not line:
            raise RuntimeError("the server child exited with code"
                               f" {self._process.wait()}")
        message = json.loads(line)
        if message[0] != expected:
            raise RuntimeError(f"the server child sent {message[0]!r},"
                               f" not {expected!r}")
        return message

    def cpu_seconds(self) -> float:
        self._send("cpu")
        return self._receive("cpu")[1]

    def stop(self) -> tuple[dict, int, float]:
        """Ask the child for its report and wait for it to exit."""
        try:
            self._send("stop")
            _, counters, rejected, peak_rss_mb = self._receive("report")
            self._process.wait(CHILD_TIMEOUT_SECONDS)
            return counters, rejected, peak_rss_mb
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the child has ended and has been waited for."""
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()
        for pipe in (self._process.stdin, self._process.stdout):
            try:
                pipe.close()
            except OSError:      # a flush into the dead child's pipe
                pass


# ----------------------------------------------------------------------
# wire passes
# ----------------------------------------------------------------------
def _rows_checksum(columns, types, rows) -> str:
    return hashlib.blake2b(repr((list(columns), list(types), rows))
                           .encode(), digest_size=8).hexdigest()


def _wire_record(stats_payload: dict, rows: int) -> tuple:
    return (stats_payload.get("num_reused"),
            stats_payload.get("num_matched"),
            stats_payload.get("num_inserted"),
            stats_payload.get("num_materialized"),
            stats_payload.get("total_cost"), rows, 0)


def run_wire_pass(workload: Workload, ops: list[Op], seed: int,
                  size: float, mode: str,
                  transposed: bool = False) -> PassResult:
    """One pass over the wire against a fresh server child."""
    gc.collect()
    clock = time.perf_counter
    meter = SpeedMeter()
    meter.sample()
    setup_started = clock()
    child = ServerChild(workload, seed, size, mode)
    try:
        with ServerClient(*child.tcp_address) as tcp, \
                HttpClient(*child.http_address,
                           timeout=CHILD_TIMEOUT_SECONDS) as http:
            short, bulk = (http, tcp) if transposed else (tcp, http)
            for statement in workload.priming(ops):
                client = bulk if statement == SCAN_STATEMENT else short
                client.query(statement)
                meter.sample_if_due()
            setup_end = clock()
            meter.sample()
            setup_s = meter.normalised(setup_started, setup_end)

            spans: list[tuple[float, float]] = []
            first_row: list[float] = []
            checksums: list[str | None] = []
            records: list[tuple | None] = []
            errors: dict[int, str] = {}
            chunks = 0
            server_cpu = child.cpu_seconds()
            own_cpu = time.process_time() - meter.spent
            for index, op in enumerate(ops):
                meter.sample_if_due()
                ttfb = 0.0
                begin = clock()
                try:
                    if op.kind == SCAN:
                        with bulk.execute_stream(op.text) as stream:
                            rows = []
                            for row in stream:
                                if not rows:
                                    ttfb = clock() - begin
                                rows.append(row)
                        result = stream
                        chunks += stream.chunks
                    else:
                        result = short.query(op.text)
                        rows = result.rows
                except Exception as exc:  # refused or failed: count it
                    errors[index] = f"{type(exc).__name__}: {exc}"
                    result = None
                spans.append((begin, clock()))
                first_row.append(ttfb)
                if result is None:
                    checksums.append(None)
                    records.append(None)
                else:
                    checksums.append(_rows_checksum(
                        result.columns, result.types, rows))
                    records.append(_wire_record(result.stats, len(rows)))
            # the generator's CPU time, less what its own host-speed
            # samples burned
            own_cpu = time.process_time() - meter.spent - own_cpu
            server_cpu = child.cpu_seconds() - server_cpu
            meter.sample()
        counters, rejected, peak_rss_mb = child.stop()
    finally:
        child.kill()
    counters["rejected"] = rejected
    return PassResult(
        mode=mode, setup_s=setup_s,
        latencies=[meter.normalised(*span) for span in spans],
        raw_seconds=sum(end - begin for begin, end in spans),
        slowdown=meter.median_slowdown(),
        checksums=checksums, records=records, errors=errors,
        counters=counters, peak_rss_mb=peak_rss_mb,
        ttfb=[t / meter.slowdown(*span)
              for t, span in zip(first_row, spans)],
        server_cpu_s=server_cpu, client_cpu_s=own_cpu, chunks=chunks)


# ----------------------------------------------------------------------
# the server layer's metrics
# ----------------------------------------------------------------------
def _codec_times(workload: Workload, seed: int, size: float
                 ) -> tuple[float, float]:
    """Seconds per row to encode the scan's result into chunk frames
    and to decode them again, timed in this process on the real result
    table (median of five, at reference host speed)."""
    db = workload.build(seed, size, harness.MODE_ON)
    try:
        table = db.sql(SCAN_STATEMENT).table
    finally:
        db.close()
    meter = SpeedMeter()
    clock = time.perf_counter
    encode, decode = [], []
    for _ in range(5):
        meter.sample()
        begin = clock()
        payloads = [protocol.encode_result_chunk(1, seq, rows)
                    for seq, rows in
                    enumerate(protocol.iter_result_chunks(table))]
        middle = clock()
        for payload in payloads:
            protocol.decode_payload(payload)
        end = clock()
        meter.sample()
        slowdown = meter.slowdown(begin, end)
        encode.append((middle - begin) / slowdown)
        decode.append((end - middle) / slowdown)
    rows = max(table.num_rows, 1)
    return (statistics.median(encode) / rows, statistics.median(decode) / rows)


def _kind_mean(ops: list[Op], values: list[float], kind: str) -> float:
    picked = [v for op, v in zip(ops, values) if op.kind == kind]
    return sum(picked) / len(picked) if picked else 0.0


def server_metrics(workload: Workload, ops: list[Op], seed: int,
                   size: float, normal: list[PassResult],
                   transposed: list[PassResult],
                   in_process: list[PassResult]) -> dict[str, float]:
    """The ``server.*`` metrics: normal and transposed wire passes, and
    the same op list through in-process ``Database.sql`` to subtract."""
    lat = stats.per_op_median([p.latencies for p in normal])
    lat_t = stats.per_op_median([p.latencies for p in transposed])
    lat_in = stats.per_op_median([p.latencies for p in in_process])
    ttfb = stats.per_op_median([p.ttfb for p in normal])
    scans = sum(op.kind == SCAN for op in ops)
    last = normal[-1]
    scan_rows = [r[5] for op, r in zip(ops, last.records)
                 if op.kind == SCAN and r is not None]
    scan_seconds = _kind_mean(ops, lat, SCAN)
    encode, decode = _codec_times(workload, seed, size)
    tcp_short = _kind_mean(ops, lat, SQL)
    return {
        "server.tcp_short_us": tcp_short * 1e6,
        "server.http_short_us": _kind_mean(ops, lat_t, SQL) * 1e6,
        "server.tcp_scan_ms": _kind_mean(ops, lat_t, SCAN) * 1e3,
        "server.http_scan_ms": scan_seconds * 1e3,
        "server.wire_overhead_us":
            (tcp_short - _kind_mean(ops, lat_in, SQL)) * 1e6,
        "server.ttfb_ms": _kind_mean(ops, ttfb, SCAN) * 1e3,
        "server.scan_rows_per_s":
            (sum(scan_rows) / len(scan_rows)) / scan_seconds
            if scan_rows and scan_seconds else 0.0,
        "server.encode_us_per_row": encode * 1e6,
        "server.decode_us_per_row": decode * 1e6,
        "server.cpu_ms_per_op": statistics.median(
            [p.server_cpu_s / p.slowdown for p in normal])
        / len(ops) * 1e3,
        "server.client_cpu_ms_per_op": statistics.median(
            [p.client_cpu_s / p.slowdown for p in normal])
        / len(ops) * 1e3,
        "server.rejected": last.counters["rejected"],
        "server.chunks_per_scan": last.chunks / scans if scans else 0.0,
    }


if __name__ == "__main__":
    _serve(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4])
