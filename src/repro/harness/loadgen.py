"""Closed-loop load harness for the serving layer (TCP and HTTP).

``LoadGenerator`` drives a running server — the TCP
:class:`~repro.server.ReproServer` or the HTTP
:class:`~repro.server.HttpServer`, selected by ``frontend`` — with N
concurrent client connections, each issuing queries from a workload in
a closed loop (next query starts when the previous answer arrives),
and reports throughput and the client-observed latency distribution —
p50/p99 as seen *through* the wire, admission control, and the shared
recycler, which is the number a serving deployment actually cares
about.

With ``stream=True`` each query is consumed through the streaming API
(:meth:`~repro.server.ServerClient.execute_stream`), and the report
additionally carries time-to-first-byte percentiles — the latency a
streaming consumer actually feels, independent of result size.

Admission rejects (:class:`~repro.errors.ServerOverloaded`) are counted
separately and retried after a short backoff: under a closed loop they
indicate the offered concurrency exceeds the server's configured
capacity, not lost work.

Also runnable as a module for smoke/load testing (used by the CI
``server`` job)::

    python -m repro.harness.loadgen --self-serve --duration 5
    python -m repro.harness.loadgen --self-serve --frontend http \\
        --scenario scan --duration 5

``--self-serve`` builds a synthetic SkyServer database, serves it on an
ephemeral port, and points the generator at it; otherwise pass
``--host``/``--port`` of an already-running server.  ``--scenario
scan`` switches the workload to full-table scans consumed through the
streaming API (the large-result path).
"""

from __future__ import annotations

import argparse
import math
import threading
import time
from dataclasses import dataclass, field

from ..errors import ReproError, ServerOverloaded
from ..server import HttpClient, ServerClient

#: backoff after an admission reject before the client retries.
REJECT_BACKOFF_SECONDS = 0.01


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) over pre-sorted values:
    the ``ceil(q * n)``-th smallest, so ``n - ceil(q * n)`` samples lie
    beyond it — the definition of ``bench/stats.py``."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[index - 1]


def percentile(sorted_values: list[float], q: float) -> float:
    """The sample at rank ``round(q * (n - 1))`` — *not* the nearest
    rank (4 samples, q = 0.5 picks the third).  Nothing here uses it:
    it stays only because ``bench/test_bench_harness.py``, frozen with
    the benchmark, asserts that it differs from ``bench/stats.py``.
    Reports use :func:`nearest_rank`."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


@dataclass
class LoadReport:
    """What the generator observed, client-side."""

    clients: int
    duration_seconds: float
    served: int = 0
    rejected: int = 0
    errors: int = 0
    #: per-query wall seconds, request write to response decode.
    latencies: list[float] = field(default_factory=list)
    #: streaming runs only: seconds from request write to the
    #: result_header arriving (time to first byte).
    ttfbs: list[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.served / self.duration_seconds

    def latency(self, q: float) -> float:
        return nearest_rank(sorted(self.latencies), q)

    def ttfb(self, q: float) -> float:
        return nearest_rank(sorted(self.ttfbs), q)

    def as_dict(self) -> dict:
        d = {
            "clients": self.clients,
            "duration_seconds": round(self.duration_seconds, 3),
            "served": self.served,
            "rejected": self.rejected,
            "errors": self.errors,
            "qps": round(self.qps, 1),
            "p50_ms": round(self.latency(0.50) * 1e3, 3),
            "p99_ms": round(self.latency(0.99) * 1e3, 3),
            "max_ms": round(self.latency(1.0) * 1e3, 3),
        }
        if self.ttfbs:
            d["ttfb_p50_ms"] = round(self.ttfb(0.50) * 1e3, 3)
            d["ttfb_p99_ms"] = round(self.ttfb(0.99) * 1e3, 3)
        return d

    def format(self) -> str:
        d = self.as_dict()
        text = (f"{d['served']} served ({d['qps']} qps,"
                f" {d['clients']} clients, {d['duration_seconds']} s),"
                f" {d['rejected']} rejected, {d['errors']} errors,"
                f" latency p50 {d['p50_ms']} ms / p99 {d['p99_ms']} ms"
                f" / max {d['max_ms']} ms")
        if "ttfb_p50_ms" in d:
            text += (f", ttfb p50 {d['ttfb_p50_ms']} ms"
                     f" / p99 {d['ttfb_p99_ms']} ms")
        return text


class LoadGenerator:
    """Closed-loop driver: ``clients`` connections, each cycling through
    ``queries`` until ``duration`` elapses or it has issued
    ``queries_per_client`` (whichever is given; duration wins ties)."""

    def __init__(self, host: str, port: int, queries: list[str], *,
                 clients: int = 4, duration: float | None = None,
                 queries_per_client: int | None = None,
                 timeout: float | None = None,
                 frontend: str = "tcp",
                 stream: bool = False) -> None:
        if duration is None and queries_per_client is None:
            raise ValueError(
                "need a duration or a per-client query count")
        if frontend not in ("tcp", "http"):
            raise ValueError(f"unknown frontend: {frontend!r}")
        self.host = host
        self.port = port
        self.queries = list(queries)
        self.clients = clients
        self.duration = duration
        self.queries_per_client = queries_per_client
        self.timeout = timeout
        self.frontend = frontend
        self.stream = stream

    def _make_client(self):
        if self.frontend == "http":
            return HttpClient(self.host, self.port)
        return ServerClient(self.host, self.port)

    def run(self) -> LoadReport:
        report_lock = threading.Lock()
        served: list[float] = []
        ttfbs: list[float] = []
        counts = {"rejected": 0, "errors": 0}
        start_barrier = threading.Barrier(self.clients + 1)
        stop_at: list[float] = [float("inf")]

        def issue(client, sql: str) -> tuple[float, float]:
            """One query; returns (latency, ttfb) in seconds (ttfb is
            the total on the non-streaming path)."""
            begin = time.monotonic()
            if self.stream:
                with client.execute_stream(
                        sql, timeout=self.timeout) as result:
                    first = time.monotonic() - begin
                    for _ in result:
                        pass
                return time.monotonic() - begin, first
            client.query(sql, timeout=self.timeout)
            elapsed = time.monotonic() - begin
            return elapsed, elapsed

        def client_loop(client_index: int) -> None:
            with self._make_client() as client:
                start_barrier.wait()
                issued = 0
                while time.monotonic() < stop_at[0] and (
                        self.queries_per_client is None
                        or issued < self.queries_per_client):
                    sql = self.queries[
                        (client_index + issued) % len(self.queries)]
                    issued += 1
                    try:
                        latency, first = issue(client, sql)
                    except ServerOverloaded:
                        with report_lock:
                            counts["rejected"] += 1
                        time.sleep(REJECT_BACKOFF_SECONDS)
                        continue
                    except ReproError:
                        with report_lock:
                            counts["errors"] += 1
                        continue
                    with report_lock:
                        served.append(latency)
                        if self.stream:
                            ttfbs.append(first)

        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"loadgen-{i}")
                   for i in range(self.clients)]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        begin = time.monotonic()
        if self.duration is not None:
            stop_at[0] = begin + self.duration
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - begin

        report = LoadReport(clients=self.clients,
                            duration_seconds=elapsed,
                            rejected=counts["rejected"],
                            errors=counts["errors"])
        report.served = len(served)
        report.latencies = served
        report.ttfbs = ttfbs
        return report


# ----------------------------------------------------------------------
# CLI (CI smoke load test)
# ----------------------------------------------------------------------
def _self_serve_workload(num_rows: int):
    """A SkyServer database + the query mix to drive at it."""
    from .. import Database, RecyclerConfig
    from ..workloads.skyserver import build_catalog, generate_workload
    db = Database(RecyclerConfig(mode="spec"),
                  catalog=build_catalog(num_rows=num_rows))
    queries = [q.sql for q in generate_workload(40)]
    return db, queries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop load generator for the repro server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--self-serve", action="store_true",
                        help="build a synthetic SkyServer database and"
                             " serve it on an ephemeral port")
    parser.add_argument("--rows", type=int, default=20000,
                        help="photoobj rows for --self-serve")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds of closed-loop load")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-query server-side timeout")
    parser.add_argument("--frontend", choices=("tcp", "http"),
                        default="tcp",
                        help="which serving frontend to drive")
    parser.add_argument("--scenario", choices=("mixed", "scan"),
                        default="mixed",
                        help="mixed = the SkyServer query mix;"
                             " scan = full-table scans consumed"
                             " through the streaming API")
    parser.add_argument("--max-in-flight", type=int, default=8)
    parser.add_argument("--max-queue", type=int, default=16)
    args = parser.parse_args(argv)

    db = None
    server = None
    try:
        if args.self_serve:
            from ..server import HttpServer, ReproServer
            db, queries = _self_serve_workload(args.rows)
            server_cls = HttpServer if args.frontend == "http" \
                else ReproServer
            server = server_cls(db, max_in_flight=args.max_in_flight,
                                max_queue=args.max_queue)
            host, port = server.start()
            print(f"self-serving SkyServer ({args.rows} rows)"
                  f" on {host}:{port} ({args.frontend})")
        else:
            if not args.port:
                parser.error("--port is required without --self-serve")
            host, port = args.host, args.port
            from ..workloads.skyserver import generate_workload
            queries = [q.sql for q in generate_workload(40)]

        stream = args.scenario == "scan"
        if stream:
            queries = ["SELECT * FROM photoobj"]
        generator = LoadGenerator(host, port, queries,
                                  clients=args.clients,
                                  duration=args.duration,
                                  timeout=args.timeout,
                                  frontend=args.frontend,
                                  stream=stream)
        report = generator.run()
        print(report.format())
        if report.errors:
            print(f"FAIL: {report.errors} queries errored")
            return 1
        if not report.served:
            print("FAIL: no queries served")
            return 1
        if server is not None:
            stats = server.stats()
            print(f"server: served {stats['served']},"
                  f" inline {stats['inline']}")
            if not stats["inline"]:
                # every statement of either scenario repeats
                print("FAIL: no warm statement was answered on the"
                      " event loop")
                return 1
        return 0
    finally:
        if server is not None:
            server.stop()
        if db is not None:
            db.close()


if __name__ == "__main__":  # pragma: no cover - exercised by CI smoke
    raise SystemExit(main())
