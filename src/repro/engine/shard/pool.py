"""Shard runtime: the parent-side manager of worker processes.

:class:`ShardRuntime` owns everything the sharded mode allocates —
one segment per registered table, one ring per worker, the worker
processes themselves — and exposes the two calls the recycler makes:

* :meth:`eligible` — can this prepared query run remotely?  Only cold
  plans qualify: no reuse substitutions, no cached scans, and every
  scanned table (and invoked table function) must be shared at exactly
  the version the query's snapshot pins (DDL since pool creation falls
  back to local execution, which is always correct).  Table functions
  ship to workers when they pickle — :class:`TableBackedFunction`
  rebinds over the worker's shared-memory tables — and opaque
  (unpicklable) functions simply keep their plans local.
* :meth:`execute` — lease a worker, dispatch the plan, stream the
  result back pickle-free, and survive worker death by respawning and
  requeueing up to ``retry_limit`` times before failing the query with
  :class:`ShardError`.

Cancellation: while a task is in flight the parent polls the query's
token; tripping it writes the task's sequence number into the worker's
ring cancel slot, and the worker aborts within one batch.  Deadlines
additionally ship with the task as remaining seconds.

Lifecycle: :meth:`close` (idempotent; called by the owning pool and by
``Database.close``) stops the workers and unlinks every segment — the
runtime is the sole owner of every shared-memory name it created, so a
closed database provably leaves nothing in ``/dev/shm``.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from typing import TYPE_CHECKING

from ...columnar import shm as shm_codec
from ...columnar.batch import VECTOR_SIZE
from ...errors import ReproError
from ...plan.logical import CachedScan, PlanNode, Scan, TableFunctionScan
from ..executor import ExecutionStats, NodeStats
from ..store import StoreStats
from .transport import DEFAULT_RING_BYTES, ShmRing, spill_name
from .worker import worker_main

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...db import Database

_START_TIMEOUT = 120.0


class ShardError(ReproError):
    """A sharded execution failed permanently (retries exhausted)."""


class ShardUnavailable(ShardError):
    """The runtime cannot take the query (closed mid-flight); the
    recycler falls back to local in-process execution."""


class _WorkerDied(Exception):
    """Internal: the leased worker process died; respawn and requeue."""


class _Worker:
    __slots__ = ("index", "generation", "process", "conn", "ring", "seq")

    def __init__(self, index: int, generation: int, process, conn,
                 ring: ShmRing) -> None:
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        self.ring = ring
        self.seq = 0


class RemoteOutcome:
    """What one remote execution returned to the recycler."""

    __slots__ = ("table", "stats", "stores")

    def __init__(self, table, stats: ExecutionStats,
                 stores: list[tuple[int, object, StoreStats]]) -> None:
        self.table = table
        self.stats = stats
        #: ``(post-order position, table, StoreStats)`` per store the
        #: worker materialized — the parent replays admission.
        self.stores = stores


class ShardRuntime:
    """N worker processes sharing this database's registered tables."""

    def __init__(self, db: "Database", workers: int,
                 ring_bytes: int = DEFAULT_RING_BYTES,
                 retry_limit: int = 2) -> None:
        if workers < 1:
            raise ShardError("shard runtime needs at least one worker")
        self.workers = workers
        self.ring_bytes = ring_bytes
        self.retry_limit = retry_limit
        self._cost_model = db.recycler.cost_model
        self._ctx = multiprocessing.get_context("spawn")
        self._closed = False
        self._lock = threading.Condition()
        self.stats = {"remote_queries": 0, "local_fallbacks": 0,
                      "worker_deaths": 0, "requeues": 0, "spills": 0}

        # Share every registered table once, pinning the versions the
        # workers serve; queries against later versions run locally.
        snapshot = db.catalog.snapshot()
        self._segments: list = []
        self._table_specs: list[tuple[str, str]] = []
        self._table_versions: dict[str, int] = {}
        for name in snapshot.table_names():
            segment = shm_codec.share_table(snapshot.table(name))
            self._segments.append(segment)
            self._table_specs.append((name, segment.name))
            self._table_versions[name.lower()] = \
                snapshot.table_version(name)

        # Ship every table function that pickles (TableBackedFunction
        # rebinds over the worker's shared tables); opaque callables
        # stay parent-only and keep their plans local.
        self._function_specs: list[tuple[str, bytes, object, float]] = []
        self._function_versions: dict[str, int] = {}
        for name in snapshot.function_names():
            entry = snapshot.function_entry(name)
            try:
                blob = pickle.dumps(entry.function)
            except Exception:
                continue
            self._function_specs.append(
                (name, blob, entry.schema, entry.invocation_cost))
            self._function_versions[name.lower()] = \
                snapshot.function_version(name)

        self._workers: list[_Worker] = []
        self._free: list[_Worker] = []
        try:
            for index in range(workers):
                worker = self._spawn(index, generation=0)
                self._workers.append(worker)
                self._free.append(worker)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int, generation: int) -> _Worker:
        ring = ShmRing.create(self.ring_bytes)
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(index, child_conn, ring.name, self._table_specs,
                  self._function_specs, VECTOR_SIZE, self._cost_model),
            name=f"repro-shard-{index}", daemon=True)
        process.start()
        child_conn.close()
        if not parent_conn.poll(_START_TIMEOUT):
            process.kill()
            ring.close()
            raise ShardError(f"shard worker {index} failed to start")
        ready = parent_conn.recv()
        assert ready[0] == "ready", ready
        return _Worker(index, generation, process, parent_conn, ring)

    def _respawn(self, worker: _Worker) -> _Worker:
        """Replace a dead worker in place (caller holds the lease)."""
        self._reap(worker, sweep_spills=True)
        replacement = self._spawn(worker.index, worker.generation + 1)
        with self._lock:
            self._workers[self._workers.index(worker)] = replacement
        return replacement

    def _reap(self, worker: _Worker, sweep_spills: bool) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=10)
        if sweep_spills and worker.seq:
            # The worker may have died between writing a spill segment
            # and reporting it; spill names are deterministic, so probe.
            for index in range(8):
                try:
                    spill = shm_codec.attach_segment(
                        spill_name(worker.ring.name, worker.seq, index))
                except FileNotFoundError:
                    break
                shm_codec.close_segment(spill, unlink=True)
        worker.ring.close()

    # ------------------------------------------------------------------
    # leasing
    # ------------------------------------------------------------------
    def _lease(self) -> _Worker:
        with self._lock:
            while not self._free:
                if self._closed:
                    raise ShardUnavailable("shard runtime is closed")
                self._lock.wait(timeout=1.0)
            if self._closed:
                raise ShardUnavailable("shard runtime is closed")
            return self._free.pop()

    def _release(self, worker: _Worker) -> None:
        with self._lock:
            if not self._closed and worker in self._workers:
                self._free.append(worker)
                self._lock.notify()

    # ------------------------------------------------------------------
    # the recycler-facing interface
    # ------------------------------------------------------------------
    def eligible(self, prepared) -> bool:
        """Cold plans over shared tables only (see module docstring)."""
        if self._closed:
            return False
        if prepared.reuses:
            self.stats["local_fallbacks"] += 1
            return False
        snapshot = prepared.snapshot
        for node in prepared.executed_plan.walk():
            remote_ok = self._node_remote_ok(node, snapshot)
            if not remote_ok:
                self.stats["local_fallbacks"] += 1
                return False
        return True

    def _node_remote_ok(self, node: PlanNode, snapshot) -> bool:
        if isinstance(node, CachedScan):
            return False
        if isinstance(node, TableFunctionScan):
            shared = self._function_versions.get(node.function)
            return shared is not None and snapshot is not None \
                and snapshot.function_version(node.function) == shared
        if isinstance(node, Scan):
            shared = self._table_versions.get(node.table.lower())
            if shared is None or snapshot is None or \
                    snapshot.table_version(node.table) != shared:
                return False
        return True

    def execute(self, prepared, cancel_token=None) -> RemoteOutcome:
        """Run ``prepared.executed_plan`` on a worker; see class doc."""
        plan = prepared.executed_plan
        nodes = list(plan.walk())
        position_of = {id(node): position
                       for position, node in enumerate(nodes)}
        store_positions = sorted(position_of[key]
                                 for key in prepared.stores)
        attempts = 0
        while True:
            worker = self._lease()
            try:
                outcome = self._dispatch(worker, plan, store_positions,
                                         cancel_token)
            except _WorkerDied:
                self.stats["worker_deaths"] += 1
                try:
                    worker = self._respawn(worker)
                finally:
                    self._release(worker)
                attempts += 1
                if attempts > self.retry_limit:
                    raise ShardError(
                        f"query failed after {attempts} worker"
                        f" death(s)") from None
                self.stats["requeues"] += 1
                continue
            except BaseException:
                self._release(worker)
                raise
            self._release(worker)
            self.stats["remote_queries"] += 1
            return outcome

    # ------------------------------------------------------------------
    def _dispatch(self, worker: _Worker, plan: PlanNode,
                  store_positions: list[int],
                  cancel_token) -> RemoteOutcome:
        worker.seq += 1
        seq = worker.seq
        remaining = cancel_token.remaining() \
            if cancel_token is not None else None
        try:
            worker.conn.send(("task", seq, plan, store_positions,
                              remaining))
        except (BrokenPipeError, OSError):
            raise _WorkerDied from None
        poll_interval = 0.05 if cancel_token is not None else 0.5
        cancel_sent = False
        while True:
            try:
                if worker.conn.poll(poll_interval):
                    message = worker.conn.recv()
                    break
            except (EOFError, OSError):
                raise _WorkerDied from None
            if not worker.process.is_alive():
                # drain a result that raced the death notification
                try:
                    if worker.conn.poll(0):
                        message = worker.conn.recv()
                        break
                except (EOFError, OSError):
                    pass
                raise _WorkerDied from None
            if cancel_token is not None and not cancel_sent \
                    and cancel_token.aborted:
                worker.ring.set_cancel(seq)
                cancel_sent = True
        kind = message[0]
        if kind == "err":
            if cancel_token is not None:
                # a parent-initiated abort surfaces as the parent's own
                # QueryCancelled/QueryTimeout type, not the worker's
                cancel_token.check()
            raise message[2]
        assert kind == "ok" and message[1] == seq, message
        return self._decode(worker, message[2])

    def _decode(self, worker: _Worker, payload: dict) -> RemoteOutcome:
        table = self._decode_section(worker, payload["root"])
        stores = []
        for position, section, meta in payload["stores"]:
            stores.append((position,
                           self._decode_section(worker, section),
                           StoreStats(measured_cost=meta[0], rows=meta[1],
                                      size_bytes=meta[2],
                                      store_overhead=meta[3])))
        node_stats = {
            position: NodeStats(self_cost=ns[0], cumulative_cost=ns[1],
                                rows_out=ns[2], bytes_out=ns[3],
                                exhausted=ns[4])
            for position, ns in payload["node_stats"].items()}
        stats = ExecutionStats(total_cost=payload["total_cost"],
                               wall_seconds=payload["wall_seconds"],
                               node_stats=node_stats,
                               store_overhead=payload["store_overhead"],
                               num_stored=payload["num_stored"],
                               physical_root=None, remote=True)
        return RemoteOutcome(table, stats, stores)

    def _decode_section(self, worker: _Worker, section):
        if section[0] == "ring":
            _, offset, nbytes, advance = section
            try:
                table, _ = shm_codec.decode_table(
                    worker.ring.view(offset, nbytes), copy=True)
            finally:
                worker.ring.consume(advance)
            return table
        _, name, _nbytes = section
        self.stats["spills"] += 1
        spill = shm_codec.attach_segment(name)
        try:
            table, _ = shm_codec.decode_table(spill.buf, copy=True)
        finally:
            shm_codec.close_segment(spill, unlink=True)
        return table

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop every worker and unlink every shared-memory segment
        this runtime created.  Idempotent; safe while queries run —
        in-flight remote queries fail over to local execution via
        :class:`ShardUnavailable`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._free.clear()
            workers = list(self._workers)
            self._workers.clear()
            self._lock.notify_all()
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=5)
            self._reap(worker, sweep_spills=False)
        for segment in self._segments:
            shm_codec.close_segment(segment, unlink=True)
        self._segments.clear()

    def __enter__(self) -> "ShardRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{self.workers} workers"
        return f"ShardRuntime({state})"
