"""Shard worker: one process hosting an engine over shared tables.

Spawned (never forked — the parent runs a maintenance thread) by
:class:`~repro.engine.shard.pool.ShardRuntime`.  On startup the worker
attaches every registered-table segment — fixed-width columns map as
zero-copy views, strings decode once — and builds a private
:class:`~repro.columnar.catalog.Catalog` over them.  It then serves
tasks from its pipe one at a time:

* a task names an executed logical plan (pickled — control plane, not
  batch data), the post-order positions to materialize for the
  recycler, and the remaining deadline;
* execution runs the ordinary engine (:func:`execute_plan`) under a
  :class:`_ShardToken` that additionally polls the ring's cancel slot
  per batch, so the parent can abort a running task within one batch;
* the result table and every materialized store table are encoded into
  the ring (or a deterministic spill segment) and a metadata-only
  message reports their sections plus per-node statistics — the parent
  replays store decisions, admits to the cache, and annotates the
  recycler graph from these.

Store requests here are always ``MODE_MATERIALIZE`` collectors: the
speculation benefit model lives in the parent, which replays
``decide`` with the *exact* measured numbers on return — the same
end-of-stream exact decision a thread-mode ``StoreOp`` makes.
"""

from __future__ import annotations

import pickle

from ...columnar import shm as shm_codec
from ...columnar.catalog import Catalog, TableBackedFunction
from ...columnar.table import Table
from ...errors import ExecutionError
from ..cancellation import CancellationToken
from ..cost import CostModel
from ..executor import execute_plan
from ..store import MODE_MATERIALIZE, StoreRequest
from .transport import ShmRing, spill_name


class _ShardToken(CancellationToken):
    """A cancellation token that also polls the ring's cancel slot.

    The parent cancels task ``seq`` by writing ``seq`` into the slot;
    sequence numbers are per-worker monotonic, so ``cancel_seq >= seq``
    means *this* task.  The poll is one 8-byte read per batch.
    """

    __slots__ = ("_ring", "_seq")

    def __init__(self, ring: ShmRing, seq: int,
                 timeout: float | None = None) -> None:
        super().__init__(timeout=timeout)
        self._ring = ring
        self._seq = seq

    def _poll(self) -> None:
        if not self._cancelled and self._ring.cancel_seq() >= self._seq:
            self.cancel()

    def check(self) -> None:
        self._poll()
        super().check()

    @property
    def aborted(self) -> bool:
        self._poll()
        return self._cancelled or self.expired


def _ship_table(ring: ShmRing, table: Table, seq: int, index: int):
    """Encode ``table`` into the ring, spilling oversized results to a
    one-off segment; returns the section descriptor for the message."""
    nbytes = shm_codec.encoded_nbytes(table)
    reserved = ring.reserve(nbytes)
    if reserved is None:
        name = spill_name(ring.name, seq, index)
        spill = shm_codec.create_segment(nbytes, name=name)
        shm_codec.encode_table(table, spill.buf)
        spill.close()  # the parent attaches, decodes, and unlinks
        return ("spill", name, nbytes)
    offset, advance = reserved
    shm_codec.encode_table(table, ring.buf, offset=offset)
    return ("ring", offset, nbytes, advance)


def _run_task(catalog: Catalog, ring: ShmRing, msg: tuple,
              vector_size: int, cost_model: CostModel) -> dict:
    _, seq, plan, store_positions, remaining = msg
    nodes = list(plan.walk())
    collected: dict[int, tuple[Table, object]] = {}
    stores = {}
    for position in store_positions:
        stores[id(nodes[position])] = StoreRequest(
            mode=MODE_MATERIALIZE, tag=position,
            on_complete=lambda table, stats, tag:
                collected.__setitem__(tag, (table, stats)))
    token = _ShardToken(ring, seq, timeout=remaining)
    result = execute_plan(plan, catalog, stores=stores,
                          vector_size=vector_size, cost_model=cost_model,
                          query_id=seq, token=token)
    sections = {"root": _ship_table(ring, result.table, seq, 0)}
    store_payload = []
    for index, position in enumerate(sorted(collected)):
        table, sstats = collected[position]
        store_payload.append((
            position, _ship_table(ring, table, seq, index + 1),
            (sstats.measured_cost, sstats.rows, sstats.size_bytes,
             sstats.store_overhead)))
    stats = result.stats
    sections["stores"] = store_payload
    sections["total_cost"] = stats.total_cost
    sections["wall_seconds"] = stats.wall_seconds
    sections["store_overhead"] = stats.store_overhead
    sections["num_stored"] = stats.num_stored
    sections["node_stats"] = {
        position: (ns.self_cost, ns.cumulative_cost, ns.rows_out,
                   ns.bytes_out, ns.exhausted)
        for position, ns in stats.node_stats.items()}
    return sections


def _serve(worker_id: int, conn, ring_name: str,
           table_specs: list[tuple[str, str]],
           function_specs: list[tuple[str, bytes, object, float]],
           vector_size: int, cost_model: CostModel,
           segments: list) -> None:
    """Attach the shared tables (their mappings go into ``segments``)
    and run tasks until told to stop or the parent goes away."""
    ring = ShmRing.attach(ring_name)
    catalog = Catalog()
    for table_name, segment_name in table_specs:
        table, segment = shm_codec.attach_table(segment_name)
        segments.append(segment)
        catalog.register_table(table_name, table, compute_stats=False)
    for function_name, blob, schema, invocation_cost in function_specs:
        function = pickle.loads(blob)
        if isinstance(function, TableBackedFunction):
            # rebuild over this process's (zero-copy shared) table
            function.bind(catalog)
        catalog.register_function(function_name, function, schema,
                                  invocation_cost=invocation_cost)
    conn.send(("ready", worker_id))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent went away
        if msg[0] == "stop":
            break
        seq = msg[1]
        try:
            payload = _run_task(catalog, ring, msg, vector_size,
                                cost_model)
            reply = ("ok", seq, payload)
        except BaseException as exc:
            reply = ("err", seq, exc)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        except Exception:
            # an exception that cannot pickle: degrade to its repr
            conn.send(("err", seq,
                       ExecutionError(f"shard worker failed: {reply!r}")))


def worker_main(worker_id: int, conn, ring_name: str,
                table_specs: list[tuple[str, str]],
                function_specs: list[tuple[str, bytes, object, float]],
                vector_size: int, cost_model: CostModel) -> None:
    """Entry point of one shard worker process (spawn target)."""
    segments: list = []
    try:
        _serve(worker_id, conn, ring_name, table_specs, function_specs,
               vector_size, cost_model, segments)
    finally:
        # The catalog's zero-copy views died with ``_serve``'s frame; a
        # segment still exporting buffers at exit makes
        # ``SharedMemory.__del__`` print a BufferError traceback.
        for segment in segments:
            shm_codec.close_segment(segment)
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass
