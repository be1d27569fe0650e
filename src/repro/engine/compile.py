"""Compile logical plans into physical operator trees.

The recycler participates by handing the compiler a mapping
``id(logical_node) -> StoreRequest``; the compiled operator for such a node
gets wrapped in a :class:`~repro.engine.store.StoreOp`.
"""

from __future__ import annotations

from typing import Mapping

from ..errors import PlanError
from ..plan.logical import (Aggregate, CachedScan, Distinct, ExtendedScan,
                            Join, Limit, PlanNode, Project, Scan, Select,
                            Sort, TableFunctionScan, TopN, UnionAll)
from .aggregate import AggregateOp, DistinctOp
from .base import PhysicalOperator, QueryContext
from .filter import FilterOp
from .join import HashJoinOp
from .project import ProjectOp
from .scan import ExtendScanOp, ReuseScanOp, TableFunctionOp, TableScanOp
from .setops import LimitOp, UnionAllOp
from .sort import SortOp
from .store import StoreOp, StoreRequest
from .topn import TopNOp


def compile_plan(plan: PlanNode, ctx: QueryContext,
                 stores: Mapping[int, StoreRequest] | None = None
                 ) -> PhysicalOperator:
    """Build the physical tree for ``plan``; wrap nodes that have a
    pending :class:`StoreRequest` (keyed by ``id(logical_node)``)."""
    stores = stores or {}
    op = _compile(plan, ctx, stores)
    return op


def _compile(node: PlanNode, ctx: QueryContext,
             stores: Mapping[int, StoreRequest]) -> PhysicalOperator:
    op = _compile_bare(node, ctx, stores)
    request = stores.get(id(node))
    if request is not None:
        op = StoreOp(ctx, op, request)
    return op


def _compile_bare(node: PlanNode, ctx: QueryContext,
                  stores: Mapping[int, StoreRequest]) -> PhysicalOperator:
    if isinstance(node, Scan):
        return TableScanOp(ctx, node)
    if isinstance(node, TableFunctionScan):
        return TableFunctionOp(ctx, node)
    if isinstance(node, ExtendedScan):
        delta_ctx = QueryContext(node.delta_catalog, ctx.vector_size,
                                 ctx.cost_model, ctx.query_id, ctx.token)
        return ExtendScanOp(ctx, node, _compile(node.delta, delta_ctx, {}))
    if isinstance(node, CachedScan):
        return ReuseScanOp(ctx, node, node.handle, node.rename, node.schema)
    if isinstance(node, Select):
        return FilterOp(ctx, node, _compile(node.child, ctx, stores))
    if isinstance(node, Project):
        return ProjectOp(ctx, node, _compile(node.child, ctx, stores))
    if isinstance(node, Aggregate):
        return AggregateOp(ctx, node, _compile(node.child, ctx, stores))
    if isinstance(node, Distinct):
        return DistinctOp(ctx, node, _compile(node.child, ctx, stores))
    if isinstance(node, Join):
        left = _compile(node.left, ctx, stores)
        right = _compile(node.right, ctx, stores)
        return HashJoinOp(ctx, node, left, right)
    if isinstance(node, TopN):
        return TopNOp(ctx, node, _compile(node.child, ctx, stores))
    if isinstance(node, Sort):
        return SortOp(ctx, node, _compile(node.child, ctx, stores))
    if isinstance(node, Limit):
        return LimitOp(ctx, node, _compile(node.child, ctx, stores))
    if isinstance(node, UnionAll):
        children = [_compile(c, ctx, stores) for c in node.children]
        return UnionAllOp(ctx, node, children)
    raise PlanError(f"cannot compile logical node {node.op_name!r}")
