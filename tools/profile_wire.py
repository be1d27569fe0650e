#!/usr/bin/env python3
"""What a served short statement costs on each side of the wire.

    python tools/profile_wire.py                     # served_mix, seed 7
    python tools/profile_wire.py --size 0.04 --repeat 1   # a smoke

starts the server child of ``bench/served.py`` (the workload's database
served over TCP in a child process, on this process's one CPU, as the
benchmark runs it; read-only on ``bench/``), primes it with the op
list's distinct statements, then sends the op list's short statements
over TCP ``--repeat`` times and prints, per statement:

* ``short.round_trip_us`` — wall time from the request to the
  assembled result;
* ``short.client_cpu_us`` — user + system CPU of this process
  (``getrusage``);
* ``short.server_cpu_us`` — user + system CPU of the server child, as
  it reports it to the benchmark;

the same three for as many ``ping`` round trips (``ping.*``: the
socket, the event loop's read and the hand-over between the two
processes, with no statement behind them); then, with the workload's
database built and primed the same way in this process:

* ``short.inprocess_cpu_us`` — CPU time (``time.thread_time``) of the
  same statements issued as the server issues them, without a wire:
  ``Session.begin()`` and ``execute(warm_only=True)`` (a full
  ``execute`` when that declines);
* ``short.serving_glue_us`` — ``short.server_cpu_us`` less
  ``ping.server_cpu_us`` and ``short.inprocess_cpu_us``: what the
  server spends on a statement beyond a request's floor and the
  statement itself (parsing the frame, admission, encoding and
  writing the reply);

and, timed in this process on the rows the statements returned:

* ``reply.encode_us`` — building a reply's frame from its result table
  as the server does for a result that fits in one chunk (the column
  values, the JSON header, the ``result`` frame);
* ``reply.decode_us`` — reading that frame back into row tuples as the
  client does.

Times are the host's, not normalised for its speed: compare two
checkouts on one host, alternating.  Exits non-zero when a statement
fails or a short statement's reply is not one frame.
"""

from __future__ import annotations

import argparse
import io
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench.served import ServerChild  # noqa: E402
from bench.workloads import SQL, WORKLOADS  # noqa: E402
from repro.columnar.table import Table  # noqa: E402
from repro.columnar.types import type_from_name  # noqa: E402
from repro.server import ServerClient, StreamingResult  # noqa: E402
from repro.server import protocol  # noqa: E402

DEFAULT_SEED = 7


def own_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(child: ServerChild, calls) -> tuple[float, float, float]:
    """Wall, client CPU and server CPU seconds of ``calls``, each a
    round trip."""
    server = child.cpu_seconds()
    client = own_cpu()
    started = time.perf_counter()
    for call in calls:
        call()
    wall = time.perf_counter() - started
    client = own_cpu() - client
    return wall, client, child.cpu_seconds() - server


def encode_reply(table: Table, stats: dict) -> bytes:
    """The frame the server sends for ``table`` when it fits in one
    chunk."""
    header = protocol.result_header_payload(1, table, stats)
    chunk = protocol.columnar_chunk(table, 0, table.num_rows)
    return protocol.encode_raw_frame(protocol.encode_result(header, chunk))


def decode_reply(frame: bytes) -> list[tuple]:
    """The rows of a reply frame, read as the client reads them."""
    read = io.BytesIO(frame).read
    stream = StreamingResult(protocol.read_frame(read),
                             lambda types: protocol.read_frame(read, types),
                             lambda: None)
    return stream.result().rows


def inprocess_cpu(workload, args, ops, short: list[str]) -> float:
    """Thread CPU seconds of ``short`` issued on one session of the
    workload's database, built and primed here as the server child
    builds and is primed."""
    db = workload.build(args.seed, args.size, args.mode)
    try:
        session = db.connect()
        for statement in workload.priming(ops):
            session.sql(statement)
        started = time.thread_time()
        for text in short:
            with session.begin() as query:
                if query.execute(text, warm_only=True) is None:
                    query.execute(text)
        return time.thread_time() - started
    finally:
        db.close()


def timed_per_call(function, args: list) -> float:
    started = time.perf_counter()
    for arg in args:
        function(*arg)
    return (time.perf_counter() - started) / max(len(args), 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="served_mix",
                        choices=sorted(name for name, workload
                                       in WORKLOADS.items()
                                       if workload.served))
    parser.add_argument("--mode", default="spec",
                        choices=("spec", "pa", "off"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--size", type=float, default=1.0)
    parser.add_argument("--repeat", type=int, default=3,
                        help="passes over the short statements")
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):  # one CPU, as the benchmark
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass
    workload = WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed, args.size)
    short = [op.text for op in ops if op.kind == SQL] * args.repeat
    print(f"# workload={workload.name} mode={args.mode} seed={args.seed}"
          f" size={args.size} short_statements={len(short)}")
    child = ServerChild(workload, args.seed, args.size, args.mode)
    try:
        with ServerClient(*child.tcp_address) as client:
            for statement in workload.priming(ops):
                client.query(statement)
            results = {}

            def query(text: str):
                return lambda: results.__setitem__(text,
                                                   client.query(text))

            ping = measure(child, [client.ping] * len(short))
            statements = measure(child, [query(text) for text in short])
        child.stop()
    finally:
        child.kill()

    replies, frames = [], []
    for result in results.values():
        if result.chunks > 1:
            print(f"# a short statement's {result.num_rows} rows came in"
                  f" {result.chunks} chunks, not one frame",
                  file=sys.stderr)
            return 1
        table = Table.from_rows(result.columns,
                                [type_from_name(n) for n in result.types],
                                result.rows)
        replies.append((table, result.stats))
        frames.append((encode_reply(table, result.stats),))
        if repr(decode_reply(*frames[-1])) != repr(result.rows):
            print("# a reply did not decode to its rows", file=sys.stderr)
            return 1
    count = max(len(short), 1)
    for label, (wall, client_cpu, server_cpu) in (("short", statements),
                                                   ("ping", ping)):
        print(f"{label}.round_trip_us {wall / count * 1e6:.1f}")
        print(f"{label}.client_cpu_us {client_cpu / count * 1e6:.1f}")
        print(f"{label}.server_cpu_us {server_cpu / count * 1e6:.1f}")
    inprocess = inprocess_cpu(workload, args, ops, short) / count
    glue = (statements[2] - ping[2]) / count - inprocess
    print(f"short.inprocess_cpu_us {inprocess * 1e6:.1f}")
    print(f"short.serving_glue_us {glue * 1e6:.1f}")
    rounds = max(1, 2000 // max(len(replies), 1))
    encode = timed_per_call(encode_reply, replies * rounds)
    decode = timed_per_call(decode_reply, frames * rounds)
    print(f"reply.statements {len(replies)}")
    print(f"reply.encode_us {encode * 1e6:.1f}")
    print(f"reply.decode_us {decode * 1e6:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
