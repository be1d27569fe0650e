"""The benefit metric (paper Section III-C).

``B(R) = cost(R) * hR / size(R)`` where

* ``cost(R)`` is the *true cost*: the stored base cost minus the base
  costs of the node's direct materialized descendants (Eq. 2) — if a DMD
  is cached, recomputation would start from it;
* ``hR`` is the importance factor: how many past queries (aged, Eq. 5)
  would have used this result given the current cache content;
* ``size(R)`` is the result's memory footprint.

This module also implements the incremental ``hR`` maintenance of
Algorithm 2 (on admission) and Eq. 4 (on eviction), and the reference
bookkeeping performed after each query's matching pass.
"""

from __future__ import annotations

from ..plan.logical import PlanNode
from .graph import GraphNode, RecyclerGraph
from .matching import MatchResult


#: the paper's constant importance factor for speculative decisions.
SPECULATION_H = 0.001


class BenefitModel:
    """Benefit computation plus hR bookkeeping over a recycler graph."""

    def __init__(self, graph: RecyclerGraph) -> None:
        self.graph = graph

    # ------------------------------------------------------------------
    # Eq. 2 and Eq. 1
    # ------------------------------------------------------------------
    def true_cost(self, node: GraphNode) -> float:
        """Base cost minus the base costs of direct materialized
        descendants (Eq. 2).

        Memoized on the node, tagged with the graph's cost epoch: the
        walk to the DMDs runs only after a ``bcost`` write or an entry
        change anywhere (:attr:`RecyclerGraph.cost_epoch`).  The epoch
        is read *before* the walk, so a change that lands during it —
        and bumps the epoch only afterwards — leaves a memo that is
        already stale, never one that looks current."""
        epoch = self.graph.cost_epoch
        memo = node.cost_memo
        if memo[0] == epoch:
            return memo[1]
        cost = node.bcost
        for dmd in self.graph.dmds(node):
            cost -= dmd.bcost
        cost = max(cost, 0.0)
        node.cost_memo = (epoch, cost)
        return cost

    def benefit(self, node: GraphNode,
                size_override: int | None = None,
                cost: float | None = None) -> float:
        """Eq. 1 for a node with known (or overridden) size; ``cost`` is
        its :meth:`true_cost` when the caller has just computed it."""
        size = size_override if size_override is not None \
            else node.size_bytes
        if size is None or size < 0:
            return 0.0
        refs = self.graph.effective_refs(node)
        if cost is None:
            cost = self.true_cost(node)
        return cost * refs / max(size, 1)

    def speculative_benefit(self, est_cost: float, est_size: int) -> float:
        """Eq. 1 with the paper's small constant importance factor."""
        return est_cost * SPECULATION_H / max(est_size, 1)

    # ------------------------------------------------------------------
    # reference bookkeeping after matching (Section III-C)
    # ------------------------------------------------------------------
    def record_query_references(self, plan: PlanNode,
                                matches: MatchResult) -> list[GraphNode]:
        """Increment ``hR`` of every pre-existing matched node that would
        have answered part of this query.

        A node is credited unless (a) this query inserted it, or (b) an
        ancestor *within the same matched region* is already materialized
        (the ancestor's result would have been used instead).  Returns the
        credited nodes (useful for cache refreshes).
        """
        credited: list[GraphNode] = []
        seen: set[int] = set()
        by_node = matches.by_node
        # pre-order from a stack, not a recursive closure (whose cycle
        # would keep ``matches`` alive until a cyclic collection)
        pending = [(plan, False)]
        while pending:
            node, blocked = pending.pop()
            match = by_node[id(node)]
            if match.inserted:
                # An inserted node starts a fresh region below: matched
                # descendants root their own shared subtrees.
                blocked = False
            else:
                graph_node = match.graph_node
                if not blocked and graph_node.node_id not in seen:
                    seen.add(graph_node.node_id)
                    self.graph.add_refs(graph_node, 1.0)
                    credited.append(graph_node)
                if graph_node.entry is not None:
                    blocked = True
            pending += [(child, blocked) for child in reversed(node.children)]
        return credited

    # ------------------------------------------------------------------
    # Algorithm 2 (admission) and Eq. 4 (eviction)
    # ------------------------------------------------------------------
    def on_admit(self, node: GraphNode) -> list[GraphNode]:
        """Adjust descendants' ``hR`` when ``node`` is materialized.

        Every DMD and potential DMD loses the queries that will now be
        answered by ``node`` (Eq. 3 / Algorithm 2).  Returns the adjusted
        nodes so the cache can refresh the materialized ones' benefits.
        """
        h_node = self.graph.effective_refs(node)
        region = self.graph.materialized_frontier_region(node)
        for descendant in region:
            self.graph.add_refs(descendant, -h_node)
        return region

    def on_evict(self, node: GraphNode) -> list[GraphNode]:
        """Inverse adjustment when ``node`` leaves the cache (Eq. 4)."""
        h_node = self.graph.effective_refs(node)
        region = self.graph.materialized_frontier_region(node)
        for descendant in region:
            self.graph.add_refs(descendant, h_node)
        return region
