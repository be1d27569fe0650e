"""Run a physical plan to completion and collect execution statistics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from ..columnar.batch import VECTOR_SIZE
from ..columnar.catalog import CatalogView
from ..columnar.table import Table
from ..errors import QueryAborted
from ..plan.logical import CachedScan, PlanNode
from .base import PhysicalOperator, QueryContext
from .cancellation import CancellationToken
from .compile import compile_plan
from .cost import DEFAULT_COST_MODEL, CostModel
from .scan import ReuseScanOp
from .store import StoreOp, StoreRequest


@dataclass
class NodeStats:
    """Per-logical-node execution measurements."""

    self_cost: float
    cumulative_cost: float   # subtree cost, store overheads excluded
    rows_out: int
    bytes_out: int
    #: the operator ran to end-of-stream — only exhausted nodes carry
    #: complete measurements worth annotating into the recycler graph.
    #: Shipped across the process boundary in sharded mode, where the
    #: parent has no physical tree to inspect.
    exhausted: bool = False


@dataclass
class ExecutionStats:
    """Everything measured while executing one query."""

    total_cost: float
    wall_seconds: float
    #: keyed by the logical node's post-order position in the executed
    #: plan — stable across queries, unlike ``id()`` which the allocator
    #: reuses once plans are garbage-collected.
    node_stats: dict[int, NodeStats] = field(default_factory=dict)
    store_overhead: float = 0.0
    reuse_cost: float = 0.0
    num_reused: int = 0
    num_stored: int = 0
    physical_root: PhysicalOperator | None = None
    #: the plan ran in a shard worker process: ``physical_root`` is
    #: None and graph annotation walks ``node_stats`` by plan position
    #: instead (``Recycler._annotate_remote``).
    remote: bool = False


@dataclass
class QueryResult:
    """A materialized result plus its execution statistics.

    ``table`` is the full query result as an immutable columnar
    :class:`~repro.columnar.table.Table` (``table.to_rows()`` for a
    row-tuple view).  ``stats`` carries deterministic cost units, wall
    time, and per-plan-node measurements; ``result.record`` — attached
    by the recycler after finalize — is the
    :class:`~repro.recycler.recycler.QueryRecord` with the query's reuse
    and stall counters (the one place it is kept).
    """

    table: Table
    stats: ExecutionStats
    #: the recycler's QueryRecord for this query, attached by
    #: ``Recycler.execute`` after finalize (opaque to the engine).
    record: object | None = None


def execute_plan(plan: PlanNode, catalog: CatalogView,
                 stores: Mapping[int, StoreRequest] | None = None,
                 vector_size: int = VECTOR_SIZE,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 query_id: int = 0,
                 token: CancellationToken | None = None) -> QueryResult:
    """Compile and run ``plan``; returns the result and statistics.

    ``token`` makes the run abortable: operators check it per batch and
    raise :class:`~repro.errors.QueryCancelled` /
    :class:`~repro.errors.QueryTimeout` mid-execution.  On such an
    abort the operator tree is still closed — with the token tripped,
    pending store operators *reject* instead of draining their input
    (see ``StoreOp._close``), so an aborted run never feeds the cache.
    """
    if type(plan) is CachedScan and not stores:  # not an ExtendedScan
        return _serve_cached(plan, vector_size, cost_model, token)
    ctx = QueryContext(catalog, vector_size=vector_size,
                       cost_model=cost_model, query_id=query_id,
                       token=token)
    root = compile_plan(plan, ctx, stores)
    started = time.perf_counter()
    batches = []
    try:
        root.open()
        while True:
            batch = root.next()
            if batch is None:
                break
            batches.append(batch)
    except QueryAborted:
        # Cooperative abort — possibly mid-open (a deadline can expire
        # while a table function runs in _open): tear the tree down
        # (store operators see the tripped token and abort rather than
        # drain, firing on_abort) and let the error unwind to the
        # recycler, which abandons the prepared query.
        root.close()
        raise
    root.close()
    wall = time.perf_counter() - started
    schema = plan.output_schema(catalog)
    table = Table.from_batches(schema, batches)
    stats = collect_stats(root, ctx, wall, plan=plan)
    return QueryResult(table=table, stats=stats)


def _serve_cached(plan: CachedScan, vector_size: int,
                  cost_model: CostModel,
                  token: CancellationToken | None) -> QueryResult:
    """A full-plan hit: the plan is one :class:`CachedScan`, so the
    answer is the cache entry's table under the query's column names.
    Hands it over without compiling, pulling and re-concatenating a
    one-operator tree, with the result and statistics a
    :class:`~repro.engine.scan.ReuseScanOp` run would have produced —
    the same ``reuse_tuple`` charge accumulated per vector, so
    ``total_cost`` agrees to the bit — except that the columns are the
    entry's own read-only arrays instead of a copy, and there is no
    ``physical_root`` (a reuse scan at the root annotates nothing in
    the recycler graph)."""
    started = time.perf_counter()
    table = plan.handle.table.project(plan.schema, plan.rename)
    rows = table.num_rows
    cost = 0.0
    for start in range(0, rows, vector_size):
        cost += min(vector_size, rows - start) * cost_model.reuse_tuple
    if token is not None:
        token.check()
    node = NodeStats(self_cost=cost, cumulative_cost=cost, rows_out=rows,
                     bytes_out=table.nbytes(), exhausted=True)
    stats = ExecutionStats(total_cost=cost,
                           wall_seconds=time.perf_counter() - started,
                           node_stats={0: node}, reuse_cost=cost,
                           num_reused=1)
    return QueryResult(table=table, stats=stats)


def collect_stats(root: PhysicalOperator, ctx: QueryContext,
                  wall_seconds: float,
                  plan: PlanNode | None = None) -> ExecutionStats:
    """Aggregate per-operator measurements after a run.

    ``plan`` (the executed logical plan) provides the stable node ids;
    operators whose logical node is not part of it get fresh negative
    keys so nothing silently collides.
    """
    stats = ExecutionStats(total_cost=ctx.meter.total,
                           wall_seconds=wall_seconds,
                           physical_root=root)
    node_ids: dict[int, int] = {}
    if plan is not None:
        node_ids = {id(node): position
                    for position, node in enumerate(plan.walk())}
    _collect(root, stats, node_ids)
    return stats


def _collect(op: PhysicalOperator, stats: ExecutionStats,
             node_ids: dict[int, int]) -> float:
    """Post-order; returns subtree cost with store overheads excluded."""
    subtree = sum(_collect(child, stats, node_ids)
                  for child in op.children)
    if isinstance(op, StoreOp):
        stats.store_overhead += op.self_cost
        stats.num_stored += 1 if op.state == "materializing" else 0
        return subtree  # store overhead excluded from node costs
    subtree += op.self_cost
    if isinstance(op, ReuseScanOp):
        stats.reuse_cost += op.self_cost
        stats.num_reused += 1
    if op.logical is not None:
        key = node_ids.get(id(op.logical))
        if key is None:
            key = -1 - len(stats.node_stats)
        stats.node_stats[key] = NodeStats(
            self_cost=op.self_cost,
            cumulative_cost=subtree,
            rows_out=op.rows_out,
            bytes_out=op.bytes_out,
            exhausted=op.exhausted)
    return subtree
