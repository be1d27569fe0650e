"""Matching query trees against the recycler graph (Algorithm 1).

A bottom-up pass over the optimized query tree.  For every node it either
finds the unique exactly-matching graph node (bisimilarity: same operator,
equal parameters under the accumulated name mapping, exactly matching
children) or inserts a graph-namespace copy.

Name mappings (paper Section III-A/B): the mapping carried with each query
node translates *query* column names into *graph* column names.  Leaves
seed it with the identity over base-table columns; every matched or
inserted node extends it with pairs for the output names it newly assigns
(query alias -> graph-unique name).  Parameter equality is always checked
under the mapping, so differing aliases across queries still unify.

Canonical-form invariant: every tree reaching this module has already
been rewritten to canonical form by ``plan.optimizer.PlanOptimizer``
(``Recycler.optimize``) — stacked Selects
merged with sorted conjuncts, identity Projects elided, literals
dtype-normalized, commutative children ordered.  Matching itself stays
purely structural; equivalence is resolved *before* it, never here.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from ..columnar.catalog import CatalogView
from ..errors import ConcurrencyConflict
from ..plan.logical import PlanNode
from .graph import GraphNode, RecyclerGraph, node_keys

#: how often a conflicting insertion is retried before giving up; real
#: concurrent sessions (``Database.pool``) hit retries whenever two
#: threads race to insert the same neighbourhood.
MAX_INSERT_RETRIES = 16

#: per node of a memoized subtree, post-order: the plan node, its graph
#: node (weakly held) and its output mapping
MemoEntry = list[tuple[PlanNode, "weakref.ref[GraphNode]", dict[str, str]]]


@dataclass
class NodeMatch:
    """Per-query-node result of the matching pass."""

    graph_node: GraphNode
    #: query output name -> graph output name, for this node's outputs.
    mapping: dict[str, str]
    #: True when this query inserted the node (no prior exact match).
    inserted: bool


@dataclass
class MatchResult:
    """Matching annotations for a whole query tree."""

    by_node: dict[int, NodeMatch] = field(default_factory=dict)
    inserted_count: int = 0
    matched_count: int = 0
    #: OCC restarts performed during this pass (Section III-B).
    conflicts: int = 0
    #: plan nodes matched by replaying a memo entry, and memo entries
    #: that failed validation (and were matched afresh)
    memo_nodes: int = 0
    memo_stale: int = 0

    def of(self, node: PlanNode) -> NodeMatch:
        return self.by_node[id(node)]

    def register(self, node: PlanNode, match: NodeMatch) -> None:
        self.by_node[id(node)] = match

    def contains(self, node: PlanNode) -> bool:
        return id(node) in self.by_node


def match_tree(plan: PlanNode, graph: RecyclerGraph, catalog: CatalogView,
               query_id: int, subsumption_hook=None,
               memo: dict[int, MemoEntry | None] | None = None
               ) -> MatchResult:
    """Run the Algorithm-1 pass over ``plan``.

    ``subsumption_hook(graph_node)`` is invoked for every *inserted* node
    so the subsumption index can add edges (Section IV-A) without this
    module depending on it.

    ``memo`` is a statement template's record of how the literal-free
    subtrees of its plan matched, keyed by ``id`` of each subtree's
    root — a node of the template's plan, which every instance shares
    (``exec_service.StatementTemplate``); ``None`` until first matched.
    Such a subtree is the same plan in every instance, so its match
    changes only when the graph does: an entry is replayed — stamping
    ``last_access_event`` and counting ``matched_count`` exactly as a
    match would — while every graph node in it is still live and every
    leaf's incarnation stamps agree with ``catalog`` (the checks the
    statement's ``RootHit`` memo passes).  Then matching would find the
    same nodes: a live node stays in the indexes matching reads, an
    exact match is unique, and everything above the leaves is found by
    child identity.  Otherwise the subtree is matched afresh and its
    entry overwritten.
    """
    result = MatchResult()
    _match_node(plan, graph, catalog, query_id, result, subsumption_hook,
                memo)
    return result


def _match_node(node: PlanNode, graph: RecyclerGraph, catalog: CatalogView,
                query_id: int, result: MatchResult,
                subsumption_hook, memo) -> NodeMatch:
    if memo is not None and id(node) in memo:
        return _match_memoized(node, graph, catalog, query_id, result,
                               subsumption_hook, memo)
    child_matches = [
        _match_node(child, graph, catalog, query_id, result,
                    subsumption_hook, memo)
        for child in node.children
    ]
    for attempt in range(MAX_INSERT_RETRIES):
        try:
            match = _match_or_insert(node, child_matches, graph, catalog,
                                     query_id, subsumption_hook)
            break
        except ConcurrencyConflict:
            result.conflicts += 1
            if attempt == MAX_INSERT_RETRIES - 1:
                raise
            if not all(graph.is_live(m.graph_node) for m in child_matches):
                # a concurrent truncation removed a child matched a
                # moment ago: the children are matched again
                child_matches = [
                    _match_node(child, graph, catalog, query_id, result,
                                subsumption_hook, memo)
                    for child in node.children]
    result.register(node, match)
    if match.inserted:
        result.inserted_count += 1
    else:
        result.matched_count += 1
    return match


def _match_memoized(node: PlanNode, graph: RecyclerGraph,
                    catalog: CatalogView, query_id: int,
                    result: MatchResult, subsumption_hook,
                    memo: dict[int, MemoEntry | None]) -> NodeMatch:
    """Match the literal-free subtree under ``node`` from its memo entry
    when that is still valid, else afresh (see :func:`match_tree`)."""
    entry = memo[id(node)]
    if entry is not None:
        replay = _replayable(entry, graph, catalog)
        if replay is not None:
            event = graph.event
            for plan_node, graph_node, mapping in replay:
                graph_node.last_access_event = event
                match = NodeMatch(graph_node, mapping, inserted=False)
                result.register(plan_node, match)
            result.matched_count += len(replay)
            result.memo_nodes += len(replay)
            return match
        result.memo_stale += 1
    match = _match_node(node, graph, catalog, query_id, result,
                        subsumption_hook, None)
    matches = [(each, result.of(each)) for each in node.walk()]
    memo[id(node)] = [(each, weakref.ref(m.graph_node), m.mapping)
                      for each, m in matches]
    return match


def _replayable(entry: MemoEntry, graph: RecyclerGraph,
                catalog: CatalogView
                ) -> list[tuple[PlanNode, GraphNode, dict[str, str]]] | None:
    """``entry`` with its graph nodes, if every one is live and every
    leaf still of the catalog's incarnation; else ``None``."""
    out = []
    for plan_node, ref, mapping in entry:
        graph_node = ref()
        if graph_node is None or not graph.is_live(graph_node):
            return None
        if not graph_node.children and \
                not graph_node.matches_incarnations(catalog):
            return None
        out.append((plan_node, graph_node, mapping))
    return out


def _match_or_insert(node: PlanNode, child_matches: list[NodeMatch],
                     graph: RecyclerGraph, catalog: CatalogView, query_id: int,
                     subsumption_hook) -> NodeMatch:
    input_mapping = _merge_mappings(child_matches)
    output_names = node.output_schema(catalog).names
    keys = params, hashkey, sig = node_keys(node, input_mapping)

    if not node.children:
        # Read the bucket version BEFORE scanning candidates: leaf
        # insertion validates it, so a racing insert into this bucket
        # forces a re-match instead of a duplicate leaf.
        expected_leaf_version = graph.leaf_bucket_version(hashkey)
        candidate_pool = graph.candidate_leaves(hashkey, sig)
        expected_versions: list[int] = []
    else:
        expected_leaf_version = None
        # Same ordering as the leaf path: versions are read BEFORE the
        # candidate scan, so an insert racing ahead of the scan bumps a
        # version we already captured and fails OCC validation instead
        # of slipping a duplicate past a stale candidate snapshot.
        expected_versions = [m.graph_node.version for m in child_matches]
        anchor = child_matches[0].graph_node
        candidate_pool = anchor.candidate_parents(hashkey, sig)

    graph_children = [m.graph_node for m in child_matches]
    for candidate in candidate_pool:
        if candidate.children != graph_children:
            continue
        if candidate.params != params:
            continue
        if not node.children and \
                not candidate.matches_incarnations(catalog):
            # A drop or full re-register superseded the incarnation this
            # leaf was stamped with: its history describes a different
            # dataset, so the query inserts a fresh leaf instead — the
            # stale subtree above it becomes unreachable to matching
            # (interior candidates require child identity) and ages out
            # under idle truncation.  Appends bump versions but
            # not incarnations, so update history still unifies.
            continue
        # Exact match found; there is at most one (paper: identical
        # subtrees are unified), so stop searching — except that one
        # version-dead twin may coexist with the current-incarnation
        # leaf in a bucket, which the incarnation gate above skips.
        mapping = _output_mapping(node, candidate, output_names)
        candidate.last_access_event = graph.event
        return NodeMatch(candidate, mapping, inserted=False)

    assigned_mapping = {name: f"{name}@q{query_id}"
                        for name in node.assigned_names()}
    inserted = graph.insert_node(node, keys, graph_children, input_mapping,
                                 assigned_mapping, query_id,
                                 expected_versions or None,
                                 expected_leaf_version,
                                 catalog=catalog)
    if subsumption_hook is not None:
        subsumption_hook(inserted)
    mapping = _output_mapping(node, inserted, output_names)
    return NodeMatch(inserted, mapping, inserted=True)


def _merge_mappings(child_matches: list[NodeMatch]) -> dict[str, str]:
    """Combine the children's output mappings into one input mapping.

    Children of a join have disjoint visible names (the binder guarantees
    it for inner/left joins; semi/anti keep only left columns visible but
    the right side's names are still needed to translate join keys).
    Later children never override earlier ones on collision.
    """
    if len(child_matches) == 1:
        return child_matches[0].mapping
    merged: dict[str, str] = {}
    for match in child_matches:
        for query_name, graph_name in match.mapping.items():
            merged.setdefault(query_name, graph_name)
    return merged


def _output_mapping(node: PlanNode, graph_node,
                    output_names: list[str]) -> dict[str, str]:
    """The query->graph mapping for this node's output columns.

    Outputs are matched positionally against the graph node's schema:
    parameter equality implies the two operators emit identical columns
    in identical order, even when the queries differ in which outputs
    they aliased (one query's pass-through may be another's alias).
    Leaves use the shared base-table / function vocabulary directly.

    Positional pairing is sound only because *every* parameter key —
    including the scan leaf's — pins output order.  If leaves matched
    with their column set unordered, a pass-through chain above two
    differently-ordered scans would silently swap names (a ``GROUP BY
    k`` could reuse a ``GROUP BY g`` entry).  Cross-order scan sharing
    is instead recovered by the plan optimizer, which canonicalizes
    scan column order wherever it is not visible in the root schema.
    """
    if not node.children:
        return {name: name for name in output_names}
    return dict(zip(output_names, graph_node.schema.names))
