#!/usr/bin/env python3
"""Profile one pass of a benchmark workload: where does the time go?

    python tools/profile_pass.py --workload ts_append --mode spec
    python tools/profile_pass.py --workload tpch_pressure --mode off --sort tottime

replays the op list of a ``bench.workloads`` workload (same seed, same
size, same database builder as ``bench/run.py``; read-only on ``bench/``)
three times, each time on a fresh database:

1. plain, with wall-clock wrappers around the per-element STRING work —
   ``types.array_nbytes`` on STRING columns, key coding of object
   arrays (``types.string_codes``, and ``np.unique`` on an object
   array, which the engine no longer calls) and the comparison kernels
   of ``Cmp`` on object operands — and prints their share of the pass,
   then the share of the sorting kernels (``sort_share``: key coding,
   group ordering, ``sort_indices`` and TopN's ``top_rows``), then the
   share of the hash join's kernels over the timed ops (``join_share``:
   index build, probe, output gather) with how many indexes were built
   dense and how many sorted, then the
   counts behind the engine's per-batch floor
   (``PhysicalOperator.next`` calls, ``Batch`` objects built, batches
   per statement), then the statement cache's counters and what its
   template path cost: the literal scan of every text that missed and
   the substitutions that replaced a lex / parse / bind (``bind``) or
   all of planning (``planned``), then the plan nodes matched from the
   templates' memos (``memo_nodes``) and the memo entries found stale
   (``memo_stale``), then the cyclic garbage collector's pauses during
   the ops (``gc_ms``, its share, and the generation-2 collections'
   count and pause), and what ``Recycler.prepare`` cost per statement
   it prepared (``prepare_us``), split into matching with its
   reference bookkeeping (``prepare.match_us``: ``Recycler._match``)
   and the rest, the post-match walk of stall collection, reuse
   substitution, store planning and the root-hit memo
   (``prepare.post_match_us``), and what a full-plan hit cost per hit
   (``root_hit_us``), split into its prepare, the engine serving the
   cached table and its finalize (``root_hit.prepare_us``,
   ``root_hit.serve_us``, ``root_hit.finalize_us``).  Timed without a
   profiler because cProfile charges every Python call but no native
   loop, which inflates exactly these shares;
2. with the cyclic collector off and ``gc.DEBUG_SAVEALL`` on, and
   prints the objects the pass left for that collector
   (``cyclic_garbage``) and how many of them are ``repro``'s
   (``cyclic_garbage_repro``: an instance of a ``repro`` class, or a
   ``repro`` function or class — a recursive closure leaves one);
3. under cProfile, and prints the top functions.

It also prints the pass's ``root_hits`` (repeats answered from their
root-hit memo), ``ddl_evicted`` (cached results an invalidation sweep
evicted), ``extended`` (cached results extended over appended rows
instead) and ``conjuncts_proved`` (moving-window conjuncts dropped
because the snapshot proved them true of every row).

Exits non-zero if texts of the op list share a shape (so a template
could have served one of them) and the pass reports no template hit —
or, recycling, no plan node matched from a template's memo — if a
recycling pass repeats a text and reports no root hit, or if it
appends and reports no extension or no proved conjunct, or if its ops
build joins on integer keys and no index was dense: a template, memo,
root-hit, extension, moving-window or direct-address join path that
has silently stopped firing fails no test.  It exits non-zero, too,
when a recycling pass leaves ``repro`` objects for the cyclic
collector: a reference cycle on the recycling path is garbage every
statement, and the collector's pauses are the pass's.

With ``--wire`` the op list travels instead: statements through a
``ServerClient``, scans streamed through an ``HttpClient``, against a
TCP and an HTTP server started in this process, with cProfile enabled
on the TCP server's event-loop thread only — what the loop does per
statement now that it answers warm ones itself — and each server's
``served`` / ``inline`` counts printed after the frames:

    python tools/profile_pass.py --workload served_mix --mode spec --wire

A hot-spot hunt starts here; a claim is measured with ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import gc
import pstats
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

from bench import hostspeed  # noqa: E402
from bench.harness import execute_op  # noqa: E402
from bench.workloads import APPEND, SCAN, SQL, WORKLOADS  # noqa: E402
from repro import exec_service  # noqa: E402
from repro.columnar import types  # noqa: E402
from repro.columnar.batch import Batch  # noqa: E402
from repro.engine import executor, grouping, join, sort, topn  # noqa: E402
from repro.engine.base import PhysicalOperator  # noqa: E402
from repro.expr.nodes import Cmp  # noqa: E402
from repro.recycler.recycler import Recycler  # noqa: E402
from repro.server import (HttpClient, HttpServer, ReproServer,  # noqa: E402
                          ServerClient)
from repro.sql import scan_literals  # noqa: E402

DEFAULT_SEED = 7


class Share:
    """Seconds and calls spent inside wrapped functions, by label."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def timed(self, label: str, function, counts=lambda *a, **k: True):
        """``function`` timed under ``label`` for the calls whose
        arguments ``counts`` accepts (no wrapped function calls
        another, so the times add up)."""
        def wrapper(*args, **kwargs):
            if not counts(*args, **kwargs):
                return function(*args, **kwargs)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self.seconds[label] = self.seconds.get(label, 0.0) + elapsed
                self.calls[label] = self.calls.get(label, 0) + 1
        return wrapper

    def report(self, prefix: str, seconds: float) -> None:
        for label in sorted(self.seconds, key=self.seconds.get,
                            reverse=True):
            print(f"{prefix:<8} {label:<24} "
                  f"{self.seconds[label] * 1e3:9.1f} ms"
                  f" {self.seconds[label] / seconds:6.1%}"
                  f" {self.calls[label]:8d} calls")


class StringShare(Share):
    """The per-element STRING kernels."""

    @contextlib.contextmanager
    def installed(self):
        def first_is_object(values, *args, **kwargs):
            return getattr(values, "dtype", None) == object

        def either_is_object(left, right, *args, **kwargs):
            return first_is_object(left) or first_is_object(right)

        saved = (types.array_nbytes, types.string_codes, np.unique,
                 Cmp._FUNCS)
        types.array_nbytes = self.timed(
            "array_nbytes(STRING)", types.array_nbytes,
            lambda values, dtype: dtype is types.STRING)
        types.string_codes = self.timed(
            "string_codes", types.string_codes, first_is_object)
        np.unique = self.timed(
            "np.unique(object)", np.unique, first_is_object)
        Cmp._FUNCS = {
            op: self.timed("Cmp on object operands", kernel,
                           either_is_object)
            for op, kernel in Cmp._FUNCS.items()}
        try:
            yield
        finally:
            (types.array_nbytes, types.string_codes, np.unique,
             Cmp._FUNCS) = saved


class SortShare(Share):
    """The engine's sorting kernels: key coding (``types.key_codes``),
    group ordering (``GroupedRows``), multi-key ordering
    (``sort_indices``) and TopN selection (``top_rows``).  Each function
    is wrapped under every name a ``repro`` module binds it to, and only
    the outermost of nested calls (``top_rows`` sorts with
    ``sort_indices``) is timed, so the times add up to the share."""

    def __init__(self) -> None:
        super().__init__()
        self._depth = 0

    def timed(self, label: str, function, counts=lambda *a, **k: True):
        timed = super().timed(label, function, counts)

        def wrapper(*args, **kwargs):
            self._depth += 1
            try:
                return (timed if self._depth == 1 else function)(
                    *args, **kwargs)
            finally:
                self._depth -= 1
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        kernels = {types.key_codes: "key_codes",
                   sort.sort_indices: "sort_indices",
                   topn.top_rows: "top_rows"}
        bound = [(module, name, value)
                 for module in list(sys.modules.values())
                 if getattr(module, "__name__", "").startswith("repro.")
                 for name, value in vars(module).items()
                 if any(value is kernel for kernel in kernels)]
        init = grouping.GroupedRows.__init__
        for module, name, value in bound:
            setattr(module, name, self.timed(kernels[value], value))
        grouping.GroupedRows.__init__ = self.timed("GroupedRows", init)
        try:
            yield
        finally:
            for module, name, value in bound:
                setattr(module, name, value)
            grouping.GroupedRows.__init__ = init


class JoinShare(Share):
    """The hash join's kernels: building the index over the build side
    (``_BuildIndex.__init__``, key packing included), probing it
    (``matches``, and ``matched`` for semi / anti joins) and gathering
    the output rows (``HashJoinOp._combine``); plus how many indexes
    were built dense (a row table looked up by address: unique keys
    only) and how many sorted (binary search), and
    how many of them had integer keys only.  No wrapped function calls
    another."""

    def __init__(self) -> None:
        super().__init__()
        self.dense = self.sorted = self.integer_keyed = 0

    @contextlib.contextmanager
    def installed(self):
        index, op = join._BuildIndex, join.HashJoinOp
        saved = (index.__init__, index.matches, index.matched,
                 op._combine)
        build = self.timed("_BuildIndex.__init__", saved[0])

        def counted_build(built, data, keys):
            build(built, data, keys)
            self.dense += built.dense
            self.sorted += not built.dense
            self.integer_keyed += all(data.column(key).dtype.kind in "iu"
                                      for key in keys)

        index.__init__ = counted_build
        index.matches = self.timed("_BuildIndex.matches", saved[1])
        index.matched = self.timed("_BuildIndex.matched", saved[2])
        op._combine = self.timed("HashJoinOp._combine", saved[3])
        try:
            yield
        finally:
            (index.__init__, index.matches, index.matched,
             op._combine) = saved


class TemplateShare(Share):
    """The statement cache's template path: the literal scan every text
    miss pays, and the substitution a template hit pays in place of
    lex / parse / bind (``bind``) or of all of planning (``planned``),
    each wrapped by the name ``exec_service`` calls it by."""

    @contextlib.contextmanager
    def installed(self):
        template = exec_service.StatementTemplate
        saved = (exec_service.scan_literals, template.bind,
                 template.planned)
        exec_service.scan_literals = self.timed("scan_literals", saved[0])
        template.bind = self.timed("StatementTemplate.bind", saved[1])
        template.planned = self.timed("StatementTemplate.planned",
                                      saved[2])
        try:
            yield
        finally:
            (exec_service.scan_literals, template.bind,
             template.planned) = saved


class PrepareShare(Share):
    """``Recycler.prepare`` and, within it, ``Recycler._match`` (so the
    two nest: the rest of a prepare is the first minus the second)."""

    @contextlib.contextmanager
    def installed(self):
        saved = (Recycler.prepare, Recycler._match)
        Recycler.prepare = self.timed("prepare", saved[0])
        Recycler._match = self.timed("match", saved[1])
        try:
            yield
        finally:
            Recycler.prepare, Recycler._match = saved


class RootHitShare:
    """What a full-plan hit costs, per hit, in its three steps:
    ``Recycler.prepare`` of the prepares ``Recycler._prepare_root_hit``
    answered, ``executor._serve_cached`` handing their cached table
    over, and ``Recycler.finalize`` of the same queries (the replay is
    one thread: a hit is finalized before the next prepare)."""

    STEPS = ("prepare", "serve", "finalize")

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(self.STEPS, 0.0)
        self.hits = 0
        self._hit = None        # the hit prepared last, until finalized

    @contextlib.contextmanager
    def installed(self):
        saved = (Recycler.prepare, Recycler._prepare_root_hit,
                 Recycler.finalize, executor._serve_cached)
        prepare, root_hit, finalize, serve = saved
        answered: list = []

        def timed(step: str, function, *args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds[step] += time.perf_counter() - started

        def noted_root_hit(*args, **kwargs):
            prepared = root_hit(*args, **kwargs)
            if prepared is not None:
                answered.append(prepared)
            return prepared

        def timed_prepare(*args, **kwargs):
            answered.clear()
            started = time.perf_counter()
            prepared = prepare(*args, **kwargs)
            if answered and prepared is answered[0]:
                self.seconds["prepare"] += time.perf_counter() - started
                self.hits += 1
                self._hit = prepared
            return prepared

        def timed_serve(plan, *args, **kwargs):
            if self._hit is None or plan is not self._hit.executed_plan:
                return serve(plan, *args, **kwargs)
            return timed("serve", serve, plan, *args, **kwargs)

        def timed_finalize(recycler, prepared, *args, **kwargs):
            if prepared is not self._hit:
                return finalize(recycler, prepared, *args, **kwargs)
            self._hit = None
            return timed("finalize", finalize, recycler, prepared,
                         *args, **kwargs)

        Recycler.prepare = timed_prepare
        Recycler._prepare_root_hit = noted_root_hit
        Recycler.finalize = timed_finalize
        executor._serve_cached = timed_serve
        try:
            yield
        finally:
            (Recycler.prepare, Recycler._prepare_root_hit,
             Recycler.finalize, executor._serve_cached) = saved

    def report(self) -> None:
        hits = max(self.hits, 1)
        print(f"root_hits_timed {self.hits}")
        print(f"root_hit_us {sum(self.seconds.values()) * 1e6 / hits:.1f}")
        for step in self.STEPS:
            print(f"root_hit.{step}_us"
                  f" {self.seconds[step] * 1e6 / hits:.1f}")


class GcPauses:
    """The cyclic garbage collector's pauses, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self.gen2_seconds = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._started
        self.seconds += elapsed
        if info["generation"] == 2:
            self.gen2 += 1
            self.gen2_seconds += elapsed

    @contextlib.contextmanager
    def installed(self):
        gc.callbacks.append(self._callback)
        try:
            yield
        finally:
            gc.callbacks.remove(self._callback)


class BatchFloor:
    """Calls that cost the same whatever the vector holds — the
    engine's per-batch floor: ``PhysicalOperator.next`` calls and
    ``Batch`` objects built (by either constructor)."""

    def __init__(self) -> None:
        self.next_calls = 0
        self.batches_built = 0

    @contextlib.contextmanager
    def installed(self):
        saved = (PhysicalOperator.next, Batch.__init__,
                 Batch.__dict__["_aligned"])
        pull, build, aligned = saved[0], saved[1], saved[2].__func__

        def counted_next(op):
            self.next_calls += 1
            return pull(op)

        def counted_init(batch, columns):
            self.batches_built += 1
            build(batch, columns)

        def counted_aligned(cls, columns):
            self.batches_built += 1
            return aligned(cls, columns)

        PhysicalOperator.next = counted_next
        Batch.__init__ = counted_init
        Batch._aligned = classmethod(counted_aligned)
        try:
            yield
        finally:
            (PhysicalOperator.next, Batch.__init__,
             Batch._aligned) = saved


def replay(workload, ops, seed: int, size: float, mode: str,
           around_ops=contextlib.nullcontext) -> tuple[float, dict]:
    """Set up as the benchmark does, replay ``ops`` once (inside the
    context ``around_ops()``); seconds the ops took (set-up and priming
    excluded) and ``Database.summary()`` at the end (priming
    included)."""
    db = workload.build(seed, size, mode)
    try:
        for statement in workload.priming(ops):
            db.sql(statement)
        with around_ops():
            started = time.perf_counter()
            for op in ops:
                execute_op(db, op, seed)
            seconds = time.perf_counter() - started
        return seconds, db.summary()
    finally:
        db.close()


def is_repro(obj: object) -> bool:
    """An instance of a ``repro`` class, or a ``repro`` function or
    class."""
    module = getattr(obj, "__module__", None)
    return isinstance(module, str) and module.split(".")[0] == "repro"


def cyclic_garbage(workload, ops, seed: int, size: float,
                   mode: str) -> tuple[int, int]:
    """Replay ``ops`` as :func:`replay` does with the cyclic collector
    off and ``gc.DEBUG_SAVEALL`` on: the unreachable objects the ops
    left for the collector, and how many of them are ``repro``'s."""
    @contextlib.contextmanager
    def saving_all():
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            yield
            gc.collect()
            counts[:] = [len(gc.garbage),
                         sum(map(is_repro, gc.garbage))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    counts = [0, 0]
    replay(workload, ops, seed, size, mode, around_ops=saving_all)
    return counts[0], counts[1]


def replay_wire(workload, ops, seed: int, size: float, mode: str,
                sort: str, top: int) -> None:
    """Set up as the benchmark does, then send ``ops`` over the wire to
    servers in this process, profiling the TCP server's loop thread."""
    db = workload.build(seed, size, mode)
    servers = {"tcp": ReproServer(db), "http": HttpServer(db)}
    profiler = cProfile.Profile()

    def on_tcp_loop(function) -> None:
        # cProfile profiles the thread that enables it
        done = threading.Event()
        servers["tcp"]._loop.call_soon_threadsafe(
            lambda: (function(), done.set()))
        done.wait(10.0)

    try:
        with ServerClient(*servers["tcp"].start()) as tcp, \
                HttpClient(*servers["http"].start()) as http:
            for statement in workload.priming(ops):
                tcp.query(statement)
            on_tcp_loop(profiler.enable)
            started = time.perf_counter()
            for op in ops:
                if op.kind == SQL:
                    tcp.query(op.text)
                elif op.kind == SCAN:
                    with http.execute_stream(op.text) as stream:
                        for _ in stream:
                            pass
                else:
                    execute_op(db, op, seed)
            seconds = time.perf_counter() - started
            on_tcp_loop(profiler.disable)
        print(f"# pass: {seconds * 1e3:.1f} ms over the wire, the TCP"
              f" loop thread profiled")
        pstats.Stats(profiler).sort_stats(sort).print_stats(top)
        for name, server in servers.items():
            stats = server.stats()
            print(f"{name}.served {stats['served']}")
            print(f"{name}.inline {stats['inline']}")
    finally:
        for server in servers.values():
            server.stop()
        db.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("spec", "pa", "off"),
                        help="recycler mode of the pass")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--size", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=30,
                        help="profile rows to print")
    parser.add_argument("--wire", action="store_true",
                        help="replay over TCP / HTTP against in-process"
                             " servers and profile the TCP loop thread")
    args = parser.parse_args(argv)

    hostspeed.steady_allocator()
    workload = WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed, args.size)
    print(f"# workload={workload.name} mode={args.mode} seed={args.seed}"
          f" size={args.size} ops={len(ops)}"
          f" ({'over the wire' if args.wire else 'in process'})")
    if args.wire:
        replay_wire(workload, ops, args.seed, args.size, args.mode,
                    args.sort, args.top)
        return 0

    share = StringShare()
    sorting = SortShare()
    joins = JoinShare()
    floor = BatchFloor()
    templates = TemplateShare()
    prepares = PrepareShare()
    root_hits = RootHitShare()
    pauses = GcPauses()

    @contextlib.contextmanager
    def around_ops():
        # the joins of the timed ops only: priming's are not the pass's
        with pauses.installed(), joins.installed():
            yield

    with share.installed(), sorting.installed(), floor.installed(), \
            templates.installed(), prepares.installed(), \
            root_hits.installed():
        seconds, summary = replay(workload, ops, args.seed, args.size,
                                  args.mode, around_ops=around_ops)
    statement_cache = summary["service"]["statement_cache"]
    print(f"# pass: {seconds * 1e3:.1f} ms unprofiled")
    share.report("string", seconds)
    print(f"string_share {sum(share.seconds.values()) / seconds:.4f}")
    sorting.report("sort", seconds)
    print(f"sort_share {sum(sorting.seconds.values()) / seconds:.4f}")
    joins.report("join", seconds)
    print(f"join_share {sum(joins.seconds.values()) / seconds:.4f}")
    print(f"join_dense_builds {joins.dense}")
    print(f"join_sorted_builds {joins.sorted}")
    texts = {op.text for op in ops if op.kind in (SQL, SCAN)}
    queries = sum(op.kind in (SQL, SCAN) for op in ops)
    print(f"next_calls {floor.next_calls}")
    print(f"batches_built {floor.batches_built}")
    print(f"batches_per_op {floor.batches_built / queries:.1f}")
    templates.report("template", seconds)
    for name, value in statement_cache.items():
        print(f"statement_cache.{name} {value}")
    optimizer = summary["optimizer"]
    print(f"root_hits {optimizer['root_hits']}")
    print(f"memo_nodes {optimizer['memo_nodes']}")
    print(f"memo_stale {optimizer['memo_stale']}")
    prepared = max(prepares.calls.get("prepare", 0), 1)
    prepare_s = prepares.seconds.get("prepare", 0.0)
    match_s = prepares.seconds.get("match", 0.0)
    print(f"prepare_us {prepare_s * 1e6 / prepared:.1f}")
    print(f"prepare.match_us {match_s * 1e6 / prepared:.1f}")
    print(f"prepare.post_match_us"
          f" {(prepare_s - match_s) * 1e6 / prepared:.1f}")
    root_hits.report()
    print(f"gc_ms {pauses.seconds * 1e3:.1f}")
    print(f"gc_share {pauses.seconds / seconds:.4f}")
    print(f"gc_gen2 {pauses.gen2}")
    print(f"gc_gen2_ms {pauses.gen2_seconds * 1e3:.1f}")
    shapes = {scan_literals(text)[0] for text in texts}
    print(f"distinct_texts {len(texts)}")
    print(f"distinct_shapes {len(shapes)}")
    catalog = summary["catalog"]
    print(f"ddl_evicted {catalog['entries_evicted']}")
    print(f"extended {catalog['entries_extended']}")
    print(f"conjuncts_proved {optimizer['conjuncts_proved']}")
    if len(shapes) < len(texts) and not statement_cache["template_hits"]:
        print("error: texts share shapes but no statement template was"
              " hit", file=sys.stderr)
        return 1
    if args.mode != "off" and len(shapes) < len(texts) and \
            not optimizer["memo_nodes"]:
        print("error: texts share shapes but no plan node was matched"
              " from a statement template's memo", file=sys.stderr)
        return 1
    if args.mode != "off" and len(texts) < queries and \
            not optimizer["root_hits"]:
        print("error: the pass repeats texts but no statement was"
              " answered from its root-hit memo", file=sys.stderr)
        return 1
    if joins.integer_keyed and not joins.dense:
        print("error: the pass built integer-keyed joins but no index"
              " was dense", file=sys.stderr)
        return 1
    garbage, repro_garbage = cyclic_garbage(workload, ops, args.seed,
                                            args.size, args.mode)
    print(f"cyclic_garbage {garbage}")
    print(f"cyclic_garbage_repro {repro_garbage}")
    if args.mode != "off" and repro_garbage:
        print(f"error: the pass left {repro_garbage} repro objects for"
              f" the cyclic garbage collector", file=sys.stderr)
        return 1
    appends = any(op.kind == APPEND for op in ops)
    if args.mode != "off" and appends and not catalog["entries_extended"]:
        print("error: the pass appends but no cached result was extended"
              " over appended rows", file=sys.stderr)
        return 1
    if args.mode != "off" and appends and \
            not optimizer["conjuncts_proved"]:
        print("error: the pass appends but no moving-window conjunct was"
              " proved", file=sys.stderr)
        return 1

    profiler = cProfile.Profile()
    profiler.runcall(replay, workload, ops, args.seed, args.size,
                     args.mode)
    pstats.Stats(profiler).sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
