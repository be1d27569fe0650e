#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 bench/run.py --workload sky_warm --seed 7 --seconds 25 --trace 0

measures one workload and prints, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload is run both ways,
each in a process of its own, and a table is printed.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy  # noqa: E402

from bench import harness, hostspeed, served, tracing  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20130408
DEFAULT_SECONDS = 25
#: a run that has not finished after this long is broken: abort it
#: (the server child is reaped on the way out) instead of hanging
WATCHDOG_SECONDS = 170


def _say(text: str) -> None:
    print(text, flush=True)


def _pin_to_one_cpu() -> None:
    """Pin this process, and with it every child it starts, to the
    highest CPU it may run on: the generator and the server child then
    hand requests over on one CPU instead of waking each other across
    two, and in-process passes stop migrating."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass


def _watchdog(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {WATCHDOG_SECONDS} s")


def _terminated(signum, frame):
    # unwind instead of dying on the spot, so the server child is
    # killed and waited for on the way out
    raise SystemExit(128 + signum)


def _header(args, workload) -> None:
    affinity = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else "n/a"
    _say(f"# workload={workload.name} seed={args.seed}"
         f" size={args.size} seconds={args.seconds} trace={args.trace}")
    _say(f"# nproc={os.cpu_count()} affinity={affinity}"
         f" python={platform.python_version()}"
         f" numpy={numpy.__version__}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _watchdog)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(WATCHDOG_SECONDS)
    _pin_to_one_cpu()
    hostspeed.steady_allocator()
    _header(args, workload)
    ops = workload.make_ops(args.seed, args.size)
    verdict = harness.Verdict()
    run_pass = served.run_wire_pass if workload.served \
        else harness.run_pass

    def one(mode: str, **how) -> harness.PassResult:
        return run_pass(workload, ops, args.seed, args.size, mode, **how)

    def in_process(traced: bool) -> harness.PassResult:
        return harness.run_pass(workload, ops, args.seed, args.size,
                                harness.MODE_ON, traced=traced)

    if not args.trace:
        on: list[harness.PassResult] = []
        off: list[harness.PassResult] = []

        def pair() -> None:
            on.append(one(harness.MODE_ON))
            off.append(one(harness.MODE_OFF))

        harness.run_rounds(args.seconds, pair)
        # the unrecycled leg is the reference every result is held to
        harness.check_passes(off[0], on + off, verdict)
        harness.describe_passes(ops, {"on": on, "off": off})
        metrics = harness.end_to_end(ops, on, off)
    else:
        kinds = ("normal", "transposed") if workload.served else ()
        passes: dict[str, list[harness.PassResult]] = {
            kind: [] for kind in kinds + ("untraced", "traced")}

        def one_round() -> None:
            if workload.served:
                passes["normal"].append(one(harness.MODE_ON))
                passes["transposed"].append(
                    one(harness.MODE_ON, transposed=True))
            passes["untraced"].append(in_process(traced=False))
            passes["traced"].append(in_process(traced=True))

        harness.run_rounds(args.seconds, one_round)
        untraced, traced = passes["untraced"], passes["traced"]
        # the traced replay must equal the untraced one, counters
        # included; both transports must deliver the same rows
        harness.check_passes(untraced[0], untraced, verdict)
        harness.check_passes(untraced[0], traced, verdict,
                             compare_records=True)
        values = harness.layer_metrics(ops, untraced, traced)
        if workload.served:
            harness.check_passes(
                passes["normal"][0],
                passes["normal"] + passes["transposed"], verdict)
            values.update(served.server_metrics(
                workload, ops, args.seed, args.size, passes["normal"],
                passes["transposed"], untraced))
        harness.describe_passes(ops, passes)
        metrics = {name: (values.get(name, 0.0), unit)
                   for name, unit in harness.LAYER_UNITS.items()}
        tracing.write_spans(
            Path(args.out) / f"trace_{workload.name}.jsonl",
            [p.spans for p in traced])

    for name, (value, unit) in metrics.items():
        _say(f"{workload.name:14s} {name:32s} {value:14.4f} {unit}")
    for problem in verdict.problems:
        _say(f"# FAILED {problem}")
    _say(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if verdict.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process
    (peak RSS is per process)."""
    status = 0
    combined: dict[str, dict] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--size", str(args.size),
                       "--trace", str(trace), "--out", args.out]
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  text=True, check=False)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                _say(line)
            status = status or done.returncode
            try:
                combined[f"{name}/trace{trace}"] = json.loads(lines[-1])
            except (IndexError, ValueError):  # the run died before its result
                status = status or 1
    _say(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, both ways)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=DEFAULT_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and per-layer metrics")
    parser.add_argument("--size", type=float, default=1.0,
                        help="share of the benchmark's data and op"
                             " counts (tests use a few percent)")
    parser.add_argument("--out", default=str(ROOT / "bench" / "out"),
                        help="where span files are written")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
