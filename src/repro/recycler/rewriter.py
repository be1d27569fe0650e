"""Rewriting rules 2 and 3 of the recycler (paper Section II).

Rule 1 (bottom-up match/insert) lives in :mod:`repro.recycler.matching`.
This module implements

* **reuse substitution** (top-down): the highest query subtrees whose
  graph node has a cached result are replaced by a
  :class:`~repro.plan.logical.CachedScan`; when exact matching found no
  cached result, subsumption edges are consulted and a compensation plan
  is built instead (Section IV-A);
* **append-aware reuse**: a cached result that is behind the query's
  snapshot only by rows appended to one table, and whose plan is
  *append-monotone* in that table (:func:`extends_over_appends`), is
  replaced by an :class:`~repro.plan.logical.ExtendedScan` — the entry
  merged with the subtree run over the appended rows — and the merged
  result is republished for the next reader.  The paper evicts every
  dependent on an update; the invalidation sweep keeps these instead
  (:func:`appended_table`);
* **store planning**: deciding which nodes of the plan-to-execute receive
  ``store`` operators — history-based materialize decisions at rewrite
  time, and speculation stores on never-executed expensive-looking nodes
  (decided at run time, Section III-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..columnar import types as t
from ..columnar.catalog import CatalogSnapshot, CatalogView
from ..columnar.table import Table
from ..engine.aggregate import PARTIAL_MERGE
from ..engine.cost import CostModel
from ..engine.store import (MODE_MATERIALIZE, MODE_SPECULATE, StoreRequest)
from ..plan.logical import (Aggregate, CachedScan, Distinct, ExtendedScan,
                            Join, PlanNode, Project, Scan, Select,
                            TableFunctionScan, TopN)
from .cache import CacheEntry, RecyclerCache
from .benefit import BenefitModel
from .config import RecyclerConfig
from .graph import GraphNode, RecyclerGraph
from .inflight import InFlightRegistry
from .matching import MatchResult, NodeMatch
from .subsumption import SubsumptionIndex, build_compensation


@dataclass
class ReuseInfo:
    """One reuse performed by the rewriter."""

    target: GraphNode        # the query node's graph node
    provider: GraphNode      # whose cached result was used
    kind: str                # "exact" | "extended" | "subsumption"


@dataclass
class RewriteOutcome:
    """Result of the reuse-substitution pass."""

    plan: PlanNode
    reuses: list[ReuseInfo] = field(default_factory=list)
    #: cached entries *not* consumed because recomputing the subtree is
    #: cheaper than re-emitting the stored rows (cost-gated reuse).
    cost_skips: int = 0
    #: the matched nodes of ``plan`` that still run, post-order, with
    #: their matches: where :meth:`StorePlanner.plan_stores` may store
    kept: list[tuple[PlanNode, NodeMatch]] = field(default_factory=list)


def current_entry(graph_node: GraphNode, catalog: CatalogView):
    """The node's cached entry if a query pinned to ``catalog`` may
    consume it — its version tags equal the snapshot's versions of the
    same tables/functions, in either direction — else ``None``."""
    entry = graph_node.entry
    if entry is not None and entry.current_in(
            catalog, graph_node.tables, graph_node.functions):
        return entry
    return None  # nothing cached for this catalog incarnation


def recompute_is_cheaper(graph_node: GraphNode,
                         cost_model: CostModel) -> bool:
    """The reuse-vs-recompute gate: re-emitting the node's stored rows
    (``rows * reuse_tuple``, the exact charge of ``ReuseScanOp``) costs
    at least its measured base cost."""
    return graph_node.bcost > 0 and graph_node.rows >= 0 and \
        graph_node.rows * cost_model.reuse_tuple >= graph_node.bcost


def extends_over_appends(graph_node: GraphNode, table: str) -> bool:
    """Whether the node's plan is *append-monotone* in ``table``: its
    result over ``table`` grown by appended rows is, byte for byte, its
    old result merged with the plan run over the appended rows alone.

    That holds for a chain of scan / select / project, and of inner,
    semi or anti joins whose probe (left) side leads to the one scan of
    ``table`` — the output follows the probe rows, each row's matches
    in build order, so the new rows' output follows the old.  Beneath
    a grouped aggregate whose every aggregate merges exactly (count,
    min, max, integer sum — :data:`~repro.engine.aggregate.PARTIAL_MERGE`;
    a scalar aggregate only without min / max) left joins qualify too:
    a left join emits each probe batch's padded rows after its matches,
    an order that depends on where batches break, which re-aggregation
    ignores.  A TopN without an offset over a row-level chain qualifies
    as well: its stable sort breaks ties by input position, where the
    old rows precede the new, so the top N of old ∪ Δ is the top N of
    the old top N followed by Δ's (with an offset the cached rows lack
    the first ``offset``)."""
    plan = graph_node.plan
    if isinstance(plan, TopN):
        return plan.offset == 0 and _row_monotone(
            graph_node.children[0], table, ("inner", "semi", "anti"))
    if not isinstance(plan, Aggregate):
        return _row_monotone(graph_node, table, ("inner", "semi", "anti"))
    types = graph_node.schema.types[len(plan.group_keys):]
    for agg, dtype in zip(plan.aggregates, types):
        if agg.func not in PARTIAL_MERGE or \
                (agg.func == "sum" and dtype is t.FLOAT64) or \
                (agg.func in ("min", "max") and not plan.group_keys):
            return False
    return _row_monotone(graph_node.children[0], table,
                         ("inner", "left", "semi", "anti"))


def _row_monotone(graph_node: GraphNode, table: str,
                  joins: tuple[str, ...]) -> bool:
    plan = graph_node.plan
    if isinstance(plan, Scan):
        return plan.table == table
    if isinstance(plan, (Select, Project)):
        return _row_monotone(graph_node.children[0], table, joins)
    if isinstance(plan, Join):
        return plan.kind in joins and \
            table not in graph_node.children[1].tables and \
            _row_monotone(graph_node.children[0], table, joins)
    return False


def appended_table(entry: CacheEntry, catalog: CatalogView) -> str | None:
    """The table ``entry`` can be extended over in ``catalog``: the one
    table it is behind on, changed since only by appends, with the
    entry's plan append-monotone in it.  ``None`` when there is none —
    current, untagged, newer than ``catalog``, behind on a non-append
    change or on two tables, or not append-monotone."""
    node = entry.node
    if entry.table_rows is None or \
            (entry.function_versions or {}) != \
            catalog.versions_for((), node.functions)[1]:
        return None
    behind = [name for name in node.tables
              if entry.table_versions[name] != catalog.table_version(name)]
    if len(behind) != 1:
        return None
    table = behind[0]
    if not catalog.appended_since(table, entry.table_versions[table]) or \
            not extends_over_appends(node, table):
        return None
    return table


def _extended_scan(node: PlanNode, graph_node: GraphNode,
                   entry: CacheEntry, table: str, rename: dict[str, str],
                   graph: RecyclerGraph, cache: RecyclerCache,
                   snapshot: CatalogSnapshot) -> ExtendedScan:
    """Reuse of ``entry`` extended over the rows of ``table`` appended
    since it was computed: ``node`` runs over those rows alone, and the
    merged result is republished under ``snapshot``'s versions."""

    def publish(result: Table, delta_cost: float) -> None:
        # in the graph namespace, as a store admits it
        stored = result.rename(dict(zip(result.schema.names,
                                        graph_node.schema.names)))
        table_versions, function_versions = snapshot.versions_for(
            graph_node.tables, graph_node.functions)
        if cache.republish(entry, stored, table_versions, function_versions,
                           snapshot.row_counts(graph_node.tables)):
            graph.record_measurement(graph_node,
                                     graph_node.bcost + delta_cost,
                                     stored.num_rows, stored.nbytes())

    return ExtendedScan(entry, node.output_schema(snapshot), rename, node,
                        snapshot.appended_rows(table,
                                               entry.table_rows[table]),
                        publish, label=f"extend:{graph_node.node_id}")


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

    An entry behind ``catalog`` only by rows appended to one table is
    reused extended over them (:func:`appended_table`), the extension
    charged to this query.
    """
    outcome = RewriteOutcome(plan=plan)

    def rewrite(node: PlanNode) -> PlanNode:
        match = matches.of(node)
        graph_node = match.graph_node

        entry = current_entry(graph_node, catalog)
        appended = None
        stale = graph_node.entry if entry is None else None
        if stale is not None:
            appended = appended_table(stale, catalog)
            if appended is not None:
                entry = stale
        if entry is not None and \
                recompute_is_cheaper(graph_node, cost_model):
            outcome.cost_skips += 1
            entry = None  # the children stay free to reuse their own
        if entry is not None:
            rename = {g: q for q, g in match.mapping.items()}
            cache.note_reuse(entry)
            outcome.reuses.append(ReuseInfo(
                graph_node, graph_node,
                "exact" if appended is None else "extended"))
            if appended is not None:
                return _extended_scan(node, graph_node, entry, appended,
                                      rename, graph, cache, catalog)
            return CachedScan(entry, node.output_schema(catalog),
                              rename=rename,
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
        if not all(new is old for new, old in
                   zip(new_children, node.children)):
            node = node.with_children(new_children)
            matches.register(node, match)
        outcome.kept.append((node, match))
        return node

    outcome.plan = rewrite(plan)
    # ``rewrite`` refers to itself: unbound, the snapshot (and the table
    # versions) it closes over are freed now, not at the next cyclic
    # collection
    del rewrite
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

    def plan_stores(self, outcome: RewriteOutcome, producer_token: object,
                    on_complete, on_abort,
                    snapshot: CatalogView | None = None
                    ) -> dict[int, StoreRequest]:
        """Store requests, keyed by ``id`` of the plan node, among
        ``outcome.kept`` — the nodes of the plan to execute
        (``outcome.plan``) substitution left, in its post-order, decided
        after every substitution as a walk of that plan would be.

        ``on_complete(table, stats, graph_node)`` /
        ``on_abort(graph_node)`` are the recycler callbacks wired into
        every request.

        ``snapshot`` is the query's pinned catalog view: a store is not
        even planned on a node whose dependencies a concurrent DDL has
        already moved past the snapshot — admission would reject the
        result anyway.  Compared only once the DDL clock moved past the
        snapshot's: every version bump moves it.  A concurrent producer
        is looked for only if the in-flight registry held one when
        planning began (this query's own registrations are ``chosen``):
        one registering later loses to, or beats, this query in
        ``register`` — the race a look per node leaves open as well.
        """
        requests: dict[int, StoreRequest] = {}
        chosen: set[int] = set()
        catalog = self.graph.catalog
        contested = bool(self.inflight)
        for node, match in outcome.kept:
            graph_node = match.graph_node
            if isinstance(node, CachedScan) or graph_node.is_materialized \
                    or graph_node.node_id in chosen:
                continue
            if not self.graph.is_live(graph_node):
                continue  # truncated while this query was stalled
            if snapshot is not None and \
                    snapshot.ddl_clock != catalog.ddl_clock and \
                    self._snapshot_behind(graph_node, snapshot):
                continue  # DDL already outran this query's snapshot
            if contested and \
                    self.inflight.producer_of(graph_node) is not None:
                continue  # a concurrent query is already producing it
            request = self._history_request(match, on_complete)
            if request is None:
                request = self._speculative_request(
                    node, match, node is outcome.plan, on_complete,
                    on_abort)
            # First registration wins: plans on different stripes can
            # race to produce a shared node, and a cancelled (abandoned)
            # query must not plant a registration its finalize will
            # never release — either way, losing means no store.
            if request is not None and \
                    self.inflight.register(graph_node, producer_token):
                requests[id(node)] = request
                chosen.add(graph_node.node_id)
        return requests

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
        cost = self.model.true_cost(graph_node)
        if cost < STORE_OVERHEAD_FACTOR * overhead:
            return None
        benefit = self.model.benefit(graph_node, cost=cost)
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
