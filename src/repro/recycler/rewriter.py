"""Rewriting rules 2 and 3 of the recycler (paper Section II).

Rule 1 (bottom-up match/insert) lives in :mod:`repro.recycler.matching`.
This module implements

* **reuse substitution** (top-down): the highest query subtrees whose
  graph node has a cached result are replaced by a
  :class:`~repro.plan.logical.CachedScan`; when exact matching found no
  cached result, subsumption edges are consulted and a compensation plan
  is built instead (Section IV-A);
* **store planning**: deciding which nodes of the plan-to-execute receive
  ``store`` operators — history-based materialize decisions at rewrite
  time, and speculation stores on never-executed expensive-looking nodes
  (decided at run time, Section III-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..columnar.catalog import CatalogView
from ..engine.cost import CostModel
from ..engine.store import (MODE_MATERIALIZE, MODE_SPECULATE, StoreRequest)
from ..plan.logical import (Aggregate, CachedScan, Distinct, PlanNode,
                            TableFunctionScan, TopN)
from .cache import RecyclerCache
from .benefit import BenefitModel
from .config import RecyclerConfig
from .graph import GraphNode, RecyclerGraph
from .inflight import InFlightRegistry
from .matching import MatchResult
from .subsumption import SubsumptionIndex, build_compensation


@dataclass
class ReuseInfo:
    """One reuse performed by the rewriter."""

    target: GraphNode        # the query node's graph node
    provider: GraphNode      # whose cached result was used
    kind: str                # "exact" | "subsumption"


@dataclass
class RewriteOutcome:
    """Result of the reuse-substitution pass."""

    plan: PlanNode
    reuses: list[ReuseInfo] = field(default_factory=list)
    #: cached entries *not* consumed because recomputing the subtree is
    #: cheaper than re-emitting the stored rows (cost-gated reuse).
    cost_skips: int = 0


def current_entry(graph_node: GraphNode, catalog: CatalogView):
    """The node's cached entry if a query pinned to ``catalog`` may
    consume it — its version tags equal the snapshot's versions of the
    same tables/functions, in either direction — else ``None``."""
    entry = graph_node.entry
    if entry is not None and entry.versions_match(*catalog.versions_for(
            graph_node.tables, graph_node.functions)):
        return entry
    return None  # nothing cached for this catalog incarnation


def recompute_is_cheaper(graph_node: GraphNode,
                         cost_model: CostModel) -> bool:
    """The reuse-vs-recompute gate: re-emitting the node's stored rows
    (``rows * reuse_tuple``, the exact charge of ``ReuseScanOp``) costs
    at least its measured base cost."""
    return graph_node.bcost > 0 and graph_node.rows >= 0 and \
        graph_node.rows * cost_model.reuse_tuple >= graph_node.bcost


def substitute_reuse(plan: PlanNode, matches: MatchResult,
                     graph: RecyclerGraph, cache: RecyclerCache,
                     subsumption: SubsumptionIndex | None,
                     config: RecyclerConfig,
                     catalog: CatalogView,
                     cost_model: CostModel) -> RewriteOutcome:
    """Top-down reuse substitution over a matched query tree.

    Replaced subtrees disappear from the executed plan; untouched nodes
    keep their identity so the match annotations stay valid.  Nodes whose
    children changed are re-created and re-registered under the same
    annotation.

    ``catalog`` is the query's pinned
    :class:`~repro.columnar.catalog.CatalogSnapshot`: a cached entry is
    only consumed when its version tags equal the snapshot's versions of
    the same tables/functions, in **either** direction — a post-DDL query
    must not reuse a pre-DDL result that invalidation has not swept yet,
    and a pre-DDL query must not reuse a post-DDL result (it owes its
    caller the snapshot it pinned).

    ``cost_model`` prices the per-subplan reuse-vs-recompute gate: a
    cached entry whose re-emission (``rows * reuse_tuple``, the exact
    charge of ``ReuseScanOp``) costs at least the subtree's measured
    base cost is *skipped* — recomputing is no slower and the children
    below it stay free to reuse their own, genuinely profitable, entries.
    """
    outcome = RewriteOutcome(plan=plan)

    def rewrite(node: PlanNode) -> PlanNode:
        match = matches.of(node)
        graph_node = match.graph_node

        entry = current_entry(graph_node, catalog)
        if entry is not None and \
                recompute_is_cheaper(graph_node, cost_model):
            outcome.cost_skips += 1
            entry = None  # the children stay free to reuse their own
        if entry is not None:
            rename = {g: q for q, g in match.mapping.items()}
            schema = node.output_schema(catalog)
            outcome.reuses.append(
                ReuseInfo(graph_node, graph_node, "exact"))
            cache.note_reuse(entry)
            return CachedScan(entry, schema, rename=rename,
                              label=f"reuse:{graph_node.node_id}")

        if subsumption is not None and config.subsumption:
            provider = subsumption.find_cached_subsumer(graph_node)
            if provider is not None and \
                    current_entry(provider, catalog) is not None:
                child_mapping = (matches.of(node.children[0]).mapping
                                 if node.children else {})
                compensation = build_compensation(
                    node, provider, match.mapping, child_mapping, catalog)
                if compensation is not None:
                    outcome.reuses.append(
                        ReuseInfo(graph_node, provider, "subsumption"))
                    cache.note_reuse(provider.entry)
                    # Subsumption references are tracked on the provider
                    # (paper Section IV-A requirement (b)).
                    graph.add_refs(provider, 1.0)
                    cache.refresh(provider)
                    return compensation

        new_children = [rewrite(child) for child in node.children]
        if all(new is old for new, old in
               zip(new_children, node.children)):
            return node
        replacement = node.with_children(new_children)
        matches.register(replacement, match)
        return replacement

    outcome.plan = rewrite(plan)
    return outcome


#: minimum effective references for a history-mode store decision —
#: "only materializes results that have been seen before".
STORE_MIN_REFS = 1.0

#: a history store must save at least this multiple of its own
#: materialize+reuse overhead per reuse; keeps cheap-to-recompute
#: results (plain scans) out of the cache even when referenced often.
STORE_OVERHEAD_FACTOR = 1.5

#: node types the paper designates for speculative stores: expected to be
#: expensive with small results ("e.g., the final result of a query, or
#: the result of an aggregation").
_SPECULATION_ELIGIBLE = (Aggregate, TopN, Distinct, TableFunctionScan)


@dataclass
class StorePlan:
    """Store requests keyed by ``id(plan node)`` plus bookkeeping."""

    requests: dict[int, StoreRequest] = field(default_factory=dict)
    history_targets: list[GraphNode] = field(default_factory=list)
    speculative_targets: list[GraphNode] = field(default_factory=list)


class StorePlanner:
    """Implements the final rewriting rule: inject store operators."""

    def __init__(self, graph: RecyclerGraph, model: BenefitModel,
                 cache: RecyclerCache, inflight: InFlightRegistry,
                 config: RecyclerConfig,
                 cost_model: CostModel | None = None) -> None:
        self.graph = graph
        self.model = model
        self.cache = cache
        self.inflight = inflight
        self.config = config
        self.cost_model = cost_model or CostModel()

    def plan_stores(self, executed_plan: PlanNode, matches: MatchResult,
                    producer_token: object,
                    on_complete, on_abort,
                    snapshot: CatalogView | None = None) -> StorePlan:
        """Choose store targets in ``executed_plan``.

        ``on_complete(table, stats, graph_node)`` /
        ``on_abort(graph_node)`` are the recycler callbacks wired into
        every request.

        ``snapshot`` is the query's pinned catalog view: a store is not
        even planned on a node whose dependencies a concurrent DDL has
        already moved past the snapshot — admission would reject the
        result anyway, so skipping avoids the materialization work and
        spares consumers a pointless in-flight wait.
        """
        plan = StorePlan()
        chosen: set[int] = set()
        root = executed_plan
        for node in executed_plan.walk():
            if isinstance(node, CachedScan) or not matches.contains(node):
                continue  # reuse leaves / compensation nodes
            match = matches.of(node)
            graph_node = match.graph_node
            if graph_node.is_materialized or \
                    graph_node.node_id in chosen:
                continue
            if not self.graph.is_live(graph_node):
                continue  # truncated while this query was stalled
            if snapshot is not None and \
                    self._snapshot_behind(graph_node, snapshot):
                continue  # DDL already outran this query's snapshot
            if self.inflight.producer_of(graph_node) is not None:
                continue  # a concurrent query is already producing it
            request = self._history_request(match, on_complete)
            if request is None:
                request = self._speculative_request(
                    node, match, node is root, on_complete, on_abort)
            if request is None:
                continue
            # First registration wins: plans on different stripes can
            # race to produce a shared node, and a cancelled (abandoned)
            # query must not plant a registration its finalize will
            # never release — either way, losing means no store.
            if not self.inflight.register(graph_node, producer_token):
                continue
            plan.requests[id(node)] = request
            chosen.add(graph_node.node_id)
            if request.mode == MODE_MATERIALIZE:
                plan.history_targets.append(graph_node)
            else:
                plan.speculative_targets.append(graph_node)
        return plan

    def _snapshot_behind(self, graph_node: GraphNode,
                         snapshot: CatalogView) -> bool:
        """True when the live catalog's versions of the node's
        dependencies have moved past ``snapshot``'s."""
        snap_tables, snap_functions = snapshot.versions_for(
            graph_node.tables, graph_node.functions)
        live_tables, live_functions = self.graph.catalog.versions_for(
            graph_node.tables, graph_node.functions)
        return (snap_tables, snap_functions) != \
            (live_tables, live_functions)

    # ------------------------------------------------------------------
    def _history_request(self, match, on_complete) -> StoreRequest | None:
        """History mode: materialization decided at rewrite time from
        recycler-graph statistics — only for results *seen before*."""
        if not self.config.history_enabled:
            return None
        graph_node = match.graph_node
        seen_before = (not match.inserted and graph_node.exec_count >= 1
                       and graph_node.size_bytes >= 0)
        if not seen_before:
            return None
        if self.graph.effective_refs(graph_node) < STORE_MIN_REFS:
            return None
        if graph_node.bcost < self.config.min_store_cost:
            return None
        # Materializing must beat its own overhead: writing the result
        # plus re-emitting it on reuse has to cost clearly less than
        # recomputing it (keeps plain scans out of the cache).
        overhead = (graph_node.size_bytes
                    * self.cost_model.store_materialize_byte
                    + max(graph_node.rows, 0)
                    * (self.cost_model.store_materialize_tuple
                       + self.cost_model.reuse_tuple))
        if self.model.true_cost(graph_node) < \
                STORE_OVERHEAD_FACTOR * overhead:
            return None
        benefit = self.model.benefit(graph_node)
        if benefit < self.config.benefit_threshold:
            return None
        if not self.cache.would_admit(benefit, graph_node.size_bytes):
            return None
        return StoreRequest(mode=MODE_MATERIALIZE, tag=graph_node,
                            on_complete=on_complete)

    def _speculative_request(self, node: PlanNode, match, is_root: bool,
                             on_complete, on_abort) -> StoreRequest | None:
        """Speculation: buffer + decide at run time, for nodes that have
        never been executed (no statistics to decide from)."""
        if not self.config.speculation_enabled:
            return None
        graph_node = match.graph_node
        if graph_node.exec_count > 0:
            return None  # stats exist; history already said no
        if not is_root and not isinstance(node, _SPECULATION_ELIGIBLE):
            return None
        return StoreRequest(
            mode=MODE_SPECULATE, tag=graph_node,
            on_complete=on_complete, decide=self._decide, on_abort=on_abort)

    def _decide(self, estimate, graph_node: GraphNode) -> bool:
        """Run-time speculative decision (paper Section III-D): Eq. 1 with
        the constant importance factor; the paper admits every speculated
        result while cache space lasts, so the cache is the only gate."""
        if estimate.est_cost < self.config.speculation_min_cost:
            return False
        benefit = self.model.speculative_benefit(
            estimate.est_cost, estimate.est_size_bytes)
        return self.cache.would_admit(benefit, estimate.est_size_bytes)
