"""Subsumption (paper Section IV-A).

A cached result *subsumes* a requested one when the latter can be derived
from it: **column subsumption** (project away columns) and **tuple
subsumption** (re-apply a stricter selection; re-aggregate a finer GROUP
BY; take a prefix of a larger top-N).  Subsumption relationships are kept
as specialized OR-edges ("subsumption edges") attached to graph nodes,
consulted only after exact matching failed, and kept transitively minimal
— a node records only its most specific subsumers (paper Fig. 4).

All subsumption *tests* run in the graph namespace (both operands are
graph nodes); only the compensation plans are rendered back into the
querying query's namespace.

The optimizer's canonical form feeds this module too: its final
``split_sargable_select`` step re-splits sargable conjuncts out of
merged Selects precisely so range predicates stay visible as
single-conjunct Select nodes that the tuple-subsumption tests can
compare.
"""

from __future__ import annotations

import threading

from ..columnar.catalog import Catalog
from ..columnar.table import Schema
from ..expr.analysis import profile_predicate
from ..expr.implication import implies, profile_implies
from ..expr.nodes import AggSpec, Arith, Col, Expr
from ..plan.logical import (Aggregate, CachedScan, Limit, PlanNode, Project,
                            Scan, Select, TopN)
from .graph import GraphNode, RecyclerGraph

_SUBSUMABLE_OPS = ("scan", "select", "project", "aggregate", "topn")


class SubsumptionIndex:
    """Maintains subsumption edges and answers subsumer lookups.

    Edge construction compares every inserted node against its siblings;
    with many same-shaped variants (e.g. hundreds of Q19-style selections
    differing only in literals) re-canonicalizing the predicates per pair
    is quadratic in practice.  Per-node predicate profiles are therefore
    cached for the lifetime of the graph node.
    """

    def __init__(self, graph: RecyclerGraph) -> None:
        self.graph = graph
        #: node_id -> (PredicateProfile, residual key frozenset)
        self._select_profiles: dict[int, tuple] = {}
        #: guards edge lists and the profile cache; ``on_insert`` is
        #: invoked from the lock-free matching pass of every session.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # edge maintenance (invoked for every inserted node)
    # ------------------------------------------------------------------
    def on_insert(self, node: GraphNode) -> None:
        if node.op_name not in _SUBSUMABLE_OPS:
            return
        with self._lock:
            for sibling in self._siblings(node):
                if self._subsumes_cached(sibling, node):
                    self._add_edge(node, sibling)
                if self._subsumes_cached(node, sibling):
                    self._add_edge(sibling, node)

    def _subsumes_cached(self, a: GraphNode, b: GraphNode) -> bool:
        """``subsumes`` with per-node profile caching for selections."""
        if a.op_name == "select" and b.op_name == "select" \
                and a.children == b.children:
            profile_a, keys_a = self._select_profile(a)
            profile_b, keys_b = self._select_profile(b)
            return profile_implies(profile_b, profile_a,
                                   stronger_residual_keys=keys_b,
                                   weaker_residual_keys=keys_a)
        return subsumes(a, b)

    def _select_profile(self, node: GraphNode) -> tuple:
        cached = self._select_profiles.get(node.node_id)
        if cached is None:
            profile = profile_predicate(node.plan.predicate)
            cached = (profile, profile.residual_keys())
            self._select_profiles[node.node_id] = cached
        return cached

    def _siblings(self, node: GraphNode) -> list[GraphNode]:
        """Nodes sharing this node's children (or its leaf table)."""
        if not node.children:
            pool = self.graph.leaves_for_table_any_columns(node.hashkey)
            return [s for s in pool if s is not node]
        anchor = node.children[0]
        return [p for p in anchor.parents()
                if p is not node
                and p.op_name == node.op_name
                and p.children == node.children]

    def _add_edge(self, node: GraphNode, subsumer: GraphNode) -> None:
        """Record ``subsumer`` ⊇ ``node``, keeping the edge set minimal:
        drop the new edge if an existing, more specific subsumer already
        leads to it transitively, and drop existing edges the new subsumer
        makes redundant."""
        for existing in node.subsumers:
            if existing is subsumer:
                return
            if self._subsumes_cached(subsumer, existing):
                return  # subsumer reachable via the more specific existing
        node.subsumers = [e for e in node.subsumers
                          if not self._subsumes_cached(e, subsumer)]
        node.subsumers.append(subsumer)

    # ------------------------------------------------------------------
    # lookup (only called when exact matching found no cached result)
    # ------------------------------------------------------------------
    def find_cached_subsumer(self, node: GraphNode) -> GraphNode | None:
        """Breadth-first over subsumption edges: the nearest (most
        specific) subsumer with a materialized result."""
        if not node.subsumers:
            return None  # an edge added concurrently is missed anyway
        with self._lock:
            return self._find_cached_subsumer(node)

    def _find_cached_subsumer(self, node: GraphNode) -> GraphNode | None:
        queue = list(node.subsumers)
        seen = {node.node_id}
        while queue:
            candidate = queue.pop(0)
            if candidate.node_id in seen:
                continue
            seen.add(candidate.node_id)
            if candidate.is_materialized:
                return candidate
            queue.extend(candidate.subsumers)
        return None


# ----------------------------------------------------------------------
# the subsumption test (graph namespace)
# ----------------------------------------------------------------------
def subsumes(a: GraphNode, b: GraphNode) -> bool:
    """True when ``b``'s result is derivable from ``a``'s result."""
    if a.op_name != b.op_name:
        return False
    if a.children != b.children:
        return False
    pa, pb = a.plan, b.plan
    if isinstance(pa, Scan) and isinstance(pb, Scan):
        return pa.table == pb.table and \
            set(pb.columns) <= set(pa.columns)
    if isinstance(pa, Select) and isinstance(pb, Select):
        return implies(pb.predicate, pa.predicate)
    if isinstance(pa, Project) and isinstance(pb, Project):
        available = {e.key() for _, e in pa.outputs}
        return all(e.key() in available for _, e in pb.outputs)
    if isinstance(pa, Aggregate) and isinstance(pb, Aggregate):
        return _aggregate_subsumes(pa, pb)
    if isinstance(pa, TopN) and isinstance(pb, TopN):
        return (pa.sort_keys == pb.sort_keys and pa.offset == 0
                and pb.offset + pb.limit <= pa.limit)
    return False


def _aggregate_subsumes(pa: Aggregate, pb: Aggregate) -> bool:
    a_keys = {e.key() for _, e in pa.group_keys}
    if not all(e.key() in a_keys for _, e in pb.group_keys):
        return False
    return all(_find_source_agg(pa, agg) is not None
               for agg in pb.aggregates)


def _find_source_agg(pa: Aggregate, agg: AggSpec):
    """The column(s) of ``pa`` from which ``agg`` can be re-derived.

    Returns ``(reagg_func, source_name)`` or for avg a
    ``("avg", sum_name, count_name)`` triple; ``None`` when impossible.
    In this NULL-free engine every ``count``/``count_star`` counts rows,
    so any count column of ``pa`` can seed any count of the request.
    """
    def find(func: str, arg_key) -> str | None:
        for candidate in pa.aggregates:
            if candidate.func == func:
                cand_key = candidate.arg.key() if candidate.arg is not None \
                    else ()
                if cand_key == arg_key:
                    return candidate.name
        return None

    def find_any_count() -> str | None:
        for candidate in pa.aggregates:
            if candidate.func in ("count", "count_star"):
                return candidate.name
        return None

    arg_key = agg.arg.key() if agg.arg is not None else ()
    if agg.func == "sum":
        name = find("sum", arg_key)
        return ("sum", name) if name else None
    if agg.func in ("count", "count_star"):
        name = find_any_count()
        return ("sum", name) if name else None
    if agg.func == "min":
        name = find("min", arg_key)
        return ("min", name) if name else None
    if agg.func == "max":
        name = find("max", arg_key)
        return ("max", name) if name else None
    if agg.func == "avg":
        sum_name = find("sum", arg_key)
        count_name = find_any_count()
        if sum_name and count_name:
            return ("avg", sum_name, count_name)
        return None
    return None


# ----------------------------------------------------------------------
# compensation plans (query namespace)
# ----------------------------------------------------------------------
def build_compensation(query_node: PlanNode, subsumer: GraphNode,
                       node_mapping: dict[str, str],
                       child_mapping: dict[str, str],
                       catalog: Catalog) -> PlanNode | None:
    """Build the plan that derives ``query_node``'s result from the cached
    result of ``subsumer``.

    ``node_mapping``/``child_mapping`` are the query->graph name mappings
    of the node and of its child (empty for leaves).  Returns ``None``
    when a compensation cannot be constructed (the caller then simply
    recomputes — losing an opportunity, never correctness).
    """
    entry = subsumer.entry
    if entry is None:
        return None
    splan = subsumer.plan
    if isinstance(query_node, Scan) and isinstance(splan, Scan):
        schema = query_node.output_schema(catalog)
        return CachedScan(entry, schema, rename={},
                          label=f"subsume:{subsumer.node_id}")
    if isinstance(query_node, Select) and isinstance(splan, Select):
        child_schema = query_node.children[0].output_schema(catalog)
        rename = {g: q for q, g in child_mapping.items()
                  if g in subsumer.schema.names}
        scan = CachedScan(entry, child_schema, rename=rename,
                          label=f"subsume:{subsumer.node_id}")
        return Select(scan, query_node.predicate)
    if isinstance(query_node, Project) and isinstance(splan, Project):
        return _project_compensation(query_node, subsumer, child_mapping,
                                     catalog)
    if isinstance(query_node, Aggregate) and isinstance(splan, Aggregate):
        return _aggregate_compensation(query_node, subsumer, child_mapping,
                                       catalog)
    if isinstance(query_node, TopN) and isinstance(splan, TopN):
        child_schema = query_node.children[0].output_schema(catalog)
        rename = {g: q for q, g in child_mapping.items()
                  if g in subsumer.schema.names}
        scan = CachedScan(entry, child_schema, rename=rename,
                          label=f"subsume:{subsumer.node_id}")
        return Limit(scan, query_node.limit, query_node.offset)
    return None


def _project_compensation(query_node: Project, subsumer: GraphNode,
                          child_mapping: dict[str, str],
                          catalog: Catalog) -> PlanNode | None:
    splan = subsumer.plan
    assert isinstance(splan, Project)
    rename: dict[str, str] = {}
    for qname, expr in query_node.outputs:
        expr_key = expr.key(child_mapping)
        source = None
        for gname, gexpr in splan.outputs:
            if gexpr.key(None) == expr_key:
                source = gname
                break
        if source is None or source in rename:
            return None
        rename[source] = qname
    schema = query_node.output_schema(catalog)
    return CachedScan(subsumer.entry, schema, rename=rename,
                      label=f"subsume:{subsumer.node_id}")


def _aggregate_compensation(query_node: Aggregate, subsumer: GraphNode,
                            child_mapping: dict[str, str],
                            catalog: Catalog) -> PlanNode | None:
    splan = subsumer.plan
    assert isinstance(splan, Aggregate)
    schema = query_node.output_schema(catalog)

    # Locate each query group key among the subsumer's keys.
    key_sources: list[tuple[str, str]] = []   # (query name, graph name)
    for qname, expr in query_node.group_keys:
        expr_key = expr.key(child_mapping)
        source = None
        for gname, gexpr in splan.group_keys:
            if gexpr.key(None) == expr_key:
                source = gname
                break
        if source is None:
            return None
        key_sources.append((qname, source))

    # Shortcut: identical key sets and identical aggregates — the cached
    # rows ARE the requested rows (column subsumption): rename only.
    if len(splan.group_keys) == len(query_node.group_keys):
        direct = _direct_rename(query_node, splan, key_sources,
                                child_mapping)
        if direct is not None:
            return CachedScan(subsumer.entry, schema, rename=direct,
                              label=f"subsume:{subsumer.node_id}")

    # General tuple subsumption: re-aggregate the finer cached result.
    agg_sources = []
    for agg in query_node.aggregates:
        source = _find_source_agg(splan, agg)
        if source is None:
            return None
        agg_sources.append(source)

    # Synthetic column names keep the cached columns clear of the query's
    # own namespace.
    synthetic: dict[str, str] = {}

    def syn(graph_name: str) -> str:
        if graph_name not in synthetic:
            synthetic[graph_name] = f"__sub{len(synthetic)}"
        return synthetic[graph_name]

    group_keys = [(qname, Col(syn(gname))) for qname, gname in key_sources]
    reaggs: list[AggSpec] = []
    post_project: list[tuple[str, Expr]] | None = None
    for agg, source in zip(query_node.aggregates, agg_sources):
        if source[0] == "avg":
            _, sum_name, count_name = source
            reaggs.append(AggSpec("sum", Col(syn(sum_name)),
                                  f"__avgsum_{agg.name}"))
            reaggs.append(AggSpec("sum", Col(syn(count_name)),
                                  f"__avgcnt_{agg.name}"))
            if post_project is None:
                post_project = [(qname, Col(qname))
                                for qname, _ in query_node.group_keys]
                post_project.extend(
                    (a.name, Col(a.name)) for a in query_node.aggregates)
            index = next(i for i, (name, _) in enumerate(post_project)
                         if name == agg.name)
            post_project[index] = (
                agg.name,
                Arith("/", Col(f"__avgsum_{agg.name}"),
                      Col(f"__avgcnt_{agg.name}")))
        else:
            func, gname = source
            reaggs.append(AggSpec(func, Col(syn(gname)), agg.name))

    needed = list(synthetic)
    cached_schema = Schema([synthetic[g] for g in needed],
                           [subsumer.schema.type_of(g) for g in needed])
    scan = CachedScan(subsumer.entry, cached_schema,
                      rename=dict(synthetic),
                      label=f"subsume:{subsumer.node_id}")
    plan: PlanNode = Aggregate(scan, group_keys, reaggs)
    if post_project is not None:
        plan = Project(plan, post_project)
    return plan


def _direct_rename(query_node: Aggregate, splan: Aggregate,
                   key_sources: list[tuple[str, str]],
                   child_mapping: dict[str, str]) -> dict[str, str] | None:
    """graph->query rename when the cached aggregate is usable verbatim."""
    rename = {gname: qname for qname, gname in key_sources}
    for agg in query_node.aggregates:
        arg_key = agg.arg.key(child_mapping) if agg.arg is not None else ()
        source = None
        for candidate in splan.aggregates:
            cand_key = candidate.arg.key() if candidate.arg is not None \
                else ()
            same_count = (agg.func in ("count", "count_star")
                          and candidate.func in ("count", "count_star"))
            if candidate.func == agg.func and cand_key == arg_key \
                    or same_count:
                source = candidate.name
                break
        if source is None or source in rename:
            return None
        rename[source] = agg.name
    return rename
