"""The recycler graph (paper Sections II, III-A, III-B).

An AND-DAG unifying the optimized plans of all past queries.  Exactly
matching subtrees are stored once; each node carries

* a *graph-namespace* copy of its logical plan node (newly assigned column
  names are made unique by appending ``@<query id>``),
* the canonical parameter key / hash key / column-bitmask signature used
  by Algorithm 1's candidate lookup,
* per-node parent hash indexes plus a global leaf index,
* statistics: references ``hR`` (with lazy aging, Eq. 5), base cost,
  cardinality, result size, execution count, and
* the cache entry when the node's result is materialized.

Insertion uses optimistic concurrency control at node granularity: the
inserter validates that the anchor (child node or leaf bucket) was not
concurrently modified since matching read it, and otherwise raises
:class:`~repro.errors.ConcurrencyConflict` so the caller re-matches that
node — the backwards-validation restart of Section III-B.

Thread safety: matching reads (candidate lookups, version reads) run
lock-free; every mutation — insertion, aging, reference adjustment,
truncation — happens under the graph's internal lock, and insertion
validates the anchor versions inside that lock, which is what makes the
optimistic protocol sound under real threads.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator

from ..columnar.catalog import Catalog, CatalogView
from ..columnar.table import Schema
from ..errors import ConcurrencyConflict, RecyclerError
from ..plan.logical import NameMapping, PlanNode, Scan, TableFunctionScan

#: ``(params, hashkey, sig)`` — see :func:`node_keys`
NodeKeys = tuple[tuple, tuple, int]


def node_keys(node: PlanNode, mapping: NameMapping) -> NodeKeys:
    """``node``'s parameter key, hash key and column signature, its
    input columns read through the query->graph name ``mapping`` (a
    leaf reads none): what Algorithm-1 matching compares, and what the
    graph copy of ``node`` keeps — renaming the copy's inputs by
    ``mapping`` leaves exactly these keys.

    When ``mapping`` renames none of the node's input columns (the
    common case) these are its :meth:`~repro.plan.logical.PlanNode.
    unmapped_keys`: one walk of its expressions, the hash key read off
    the parameter key, memoized — and carried, with the input columns,
    to every plan substituted from a statement template's where the
    node's own parameters hold no literal.  Otherwise only the hash
    key, which no mapping changes, is read off them."""
    keys = node.unmapped_keys()
    if mapping and any(mapping.get(column, column) != column
                       for column in node.input_columns()):
        return node.params_key(mapping), keys[1], node.signature(mapping)
    return keys


class GraphNode:
    """One operator of the recycler graph."""

    __slots__ = (
        "node_id", "plan", "op_name", "params", "hashkey", "sig",
        "children", "parent_index", "assigned", "schema",
        "refs_raw", "age_event", "bcost", "rows", "size_bytes",
        "exec_count", "inserted_by", "last_access_event",
        "entry", "subsumers", "version", "tables", "functions",
        "table_incarnations", "function_incarnations", "cost_memo",
        "__weakref__",
    )

    def __init__(self, node_id: int, plan: PlanNode, keys: NodeKeys,
                 children: list["GraphNode"], assigned: list[str],
                 schema: Schema, inserted_by: int) -> None:
        self.node_id = node_id
        self.plan = plan
        self.op_name = plan.op_name
        self.params, self.hashkey, self.sig = keys
        self.children = children
        self.parent_index: dict[tuple, list[GraphNode]] = {}
        self.assigned = assigned
        self.schema = schema
        # statistics (paper Fig. 3 annotations)
        self.refs_raw = 0.0
        self.age_event = 0
        self.bcost = 0.0
        self.rows = -1          # -1: never executed / unknown
        self.size_bytes = -1
        self.exec_count = 0
        self.inserted_by = inserted_by
        self.last_access_event = 0
        # cache / subsumption state
        self.entry = None       # CacheEntry | None
        self.subsumers: list[GraphNode] = []
        self.version = 0
        # dependency sets (catalog versioning): which base tables and
        # table functions this node's whole subtree reads — precomputed
        # so cache admission/invalidation never re-walks the plan, and
        # built from the children's sets (``plan``'s children are the
        # children's plans) so insertion does not walk it either.
        if len(children) == 1:
            self.tables = children[0].tables
            self.functions = children[0].functions
        else:
            self.tables = frozenset().union(
                *(c.tables for c in children),
                (plan.table,) if isinstance(plan, Scan) else ())
            self.functions = frozenset().union(
                *(c.functions for c in children),
                (plan.function,) if isinstance(plan, TableFunctionScan)
                else ())
        # incarnation stamps of the inserting query's snapshot (set by
        # RecyclerGraph.insert_node): a drop or re-register bumps the
        # live incarnation past these, making the node *version-dead* —
        # unmatchable by new snapshots, so it ages out under truncation.
        self.table_incarnations: dict[str, int] = {}
        self.function_incarnations: dict[str, int] = {}
        #: ``(cost epoch, Eq. 2 true cost)`` the benefit model last
        #: computed (``BenefitModel.true_cost``); valid while the graph's
        #: :attr:`RecyclerGraph.cost_epoch` still reads that epoch
        self.cost_memo: tuple[int, float] = (-1, 0.0)

    # ------------------------------------------------------------------
    @property
    def is_materialized(self) -> bool:
        return self.entry is not None

    @property
    def output_names(self) -> list[str]:
        return self.schema.names

    def parents(self) -> Iterator["GraphNode"]:
        # Snapshot the buckets: concurrent insertion may add a new hash
        # key while lock-free matching or benefit maintenance iterates.
        for bucket in list(self.parent_index.values()):
            yield from bucket

    def candidate_parents(self, hashkey: tuple,
                          sig: int) -> list["GraphNode"]:
        """Parents matching the hash key whose signature equals ``sig``.

        Exact bisimilar matches have identical (mapped) input column sets,
        so signature equality is a sound prune for exact matching.
        """
        return [p for p in self.parent_index.get(hashkey, ())
                if p.sig == sig]

    def matches_incarnations(self, view) -> bool:
        """Whether this node's incarnation stamps agree with ``view``
        (a :class:`~repro.columnar.catalog.CatalogView`).  Appends bump
        versions but not incarnations, so graph history survives the
        paper's committed-update model; a drop or full re-register makes
        this False forever — the node is version-dead."""
        for table in self.tables:
            if self.table_incarnations.get(table) != \
                    view.table_incarnation(table):
                return False
        for function in self.functions:
            if self.function_incarnations.get(function) != \
                    view.function_incarnation(function):
                return False
        return True

    def _register_parent(self, parent: "GraphNode") -> None:
        self.parent_index.setdefault(parent.hashkey, []).append(parent)
        self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mat = "*" if self.is_materialized else ""
        return (f"GraphNode#{self.node_id}{mat}({self.op_name},"
                f" refs={self.refs_raw:.2f}, bcost={self.bcost:.0f})")


def _children(node: GraphNode) -> list[GraphNode]:
    return node.children


def _has_parent_outside(node: GraphNode, ids: dict[int, GraphNode]) -> bool:
    # the parent buckets are read without ``parents()``' snapshot: the
    # caller holds the graph lock
    for bucket in node.parent_index.values():
        for parent in bucket:
            if parent.node_id not in ids:
                return True
    return False


def _frontier(start: GraphNode,
              step: Callable[[GraphNode], Iterable[GraphNode]],
              region: bool) -> list[GraphNode]:
    """The nodes ``step`` reaches from ``start`` (children or parents),
    never stepping past a materialized one, in the order a recursive
    descent meets them: the materialized ones, or with ``region`` every
    one.  A loop over a stack of iterators, not a recursive closure: a
    closure that calls itself is a reference cycle, and with it every
    list it fills would wait for the cyclic collector."""
    out: list[GraphNode] = []
    seen: set[int] = set()
    pending = [iter(step(start))]
    while pending:
        for node in pending[-1]:
            if node.node_id in seen:
                continue
            seen.add(node.node_id)
            if region or node.entry is not None:
                out.append(node)
            if node.entry is None:
                pending.append(iter(step(node)))
                break
        else:
            pending.pop()
    return out


class RecyclerGraph:
    """The unified AND-DAG over all past query plans."""

    def __init__(self, catalog: Catalog, alpha: float = 0.995) -> None:
        self.catalog = catalog
        self.alpha = alpha
        self.nodes: list[GraphNode] = []
        #: global hash table for leaves (paper: used to find candidate
        #: leaf nodes during matching), keyed by the leaf's hash key.
        self.leaf_index: dict[tuple, list[GraphNode]] = {}
        #: per-bucket insertion counters: the leaf analogue of a node's
        #: ``version``, validated by OCC leaf insertion.
        self._leaf_versions: dict[tuple, int] = {}
        #: global query-event counter driving lazy aging (Eq. 5).
        self.event = 0
        self._next_id = 0
        #: ids of nodes currently in the graph — O(1) liveness probe so
        #: store planning can skip nodes truncated while the planning
        #: query was blocked on an in-flight producer.
        self._live: set[int] = set()
        #: lowest ``last_access_event`` the last idle sweep kept, capped
        #: at the event it ran at — see :meth:`truncate_due`.
        self._truncate_floor = 0
        #: moves after every change that can move a node's Eq. 2 true
        #: cost — a ``bcost`` write, a node gaining or losing its cache
        #: entry — once the change has landed; a true-cost memo tagged
        #: with an older epoch is stale (see :meth:`costs_moved`)
        self.cost_epoch = 0
        #: guards all mutations; matching reads stay lock-free (OCC).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # events & aging
    # ------------------------------------------------------------------
    def tick(self, referenced: GraphNode | None = None) -> int:
        """Advance the aging clock by one query event; with
        ``referenced``, then add one reference to that node at the new
        event (:meth:`add_refs`) under the same lock acquisition."""
        with self._lock:
            self.event += 1
            if referenced is not None:
                self._age(referenced)
                referenced.refs_raw += 1.0
            return self.event

    def effective_refs(self, node: GraphNode) -> float:
        """``hR`` after lazy aging to the current event (Eq. 5)."""
        with self._lock:
            self._age(node)
            return max(node.refs_raw, 0.0)

    def _age(self, node: GraphNode) -> None:
        if node.age_event == self.event or self.alpha >= 1.0:
            node.age_event = self.event
            return
        delta = self.event - node.age_event
        node.refs_raw *= self.alpha ** delta
        node.age_event = self.event

    def add_refs(self, node: GraphNode, amount: float) -> None:
        """Age, then adjust raw ``hR`` (used by Alg. 2 / Eq. 3 / Eq. 4)."""
        with self._lock:
            self._age(node)
            node.refs_raw += amount

    def record_execution(self, node: GraphNode, bcost: float, rows: int,
                         size_bytes: int) -> None:
        """Annotate measured statistics after an execution (atomically:
        finalize of different plans sharing ``node`` may race, and the
        ``exec_count`` increment is a read-modify-write)."""
        with self._lock:
            node.bcost = bcost
            node.rows = rows
            node.size_bytes = size_bytes
            node.exec_count += 1
            node.last_access_event = self.event
            self.cost_epoch += 1

    def record_measurement(self, node: GraphNode, bcost: float, rows: int,
                           size_bytes: int) -> None:
        """Store-completion statistics (atomic like
        :meth:`record_execution`, but no execution-count bump — the
        producing query's finalize annotation owns that)."""
        with self._lock:
            node.bcost = bcost
            node.rows = rows
            node.size_bytes = size_bytes
            self.cost_epoch += 1

    def costs_moved(self) -> None:
        """Invalidate every true-cost memo: a node gained or lost its
        cache entry, which moves the true cost of its ancestors.  The
        epoch is written under the graph lock alone (the cache calls
        this under its own lock, which it takes before this one
        anyway), so no bump is lost to a concurrent one."""
        with self._lock:
            self.cost_epoch += 1

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def candidate_leaves(self, hashkey: tuple, sig: int) -> list[GraphNode]:
        return [n for n in self.leaf_index.get(hashkey, ())
                if n.sig == sig]

    def leaf_bucket_version(self, hashkey: tuple) -> int:
        """Insertion counter of one leaf bucket.  Matching reads it before
        scanning candidates; leaf insertion validates it (leaf OCC)."""
        return self._leaf_versions.get(hashkey, 0)

    def is_live(self, node: GraphNode) -> bool:
        """Whether ``node`` is still part of the graph (not truncated).

        Lock-free set probe: callers holding a stale reference (matched
        before a truncation ran) use it to skip ghost nodes."""
        return node.node_id in self._live

    def leaves_for_table_any_columns(self,
                                     hashkey_prefix: tuple
                                     ) -> list[GraphNode]:
        """All leaf nodes sharing a hash key (signature ignored) —
        used by column subsumption on scans."""
        return list(self.leaf_index.get(hashkey_prefix, ()))

    # ------------------------------------------------------------------
    # insertion (optimistic, node granularity)
    # ------------------------------------------------------------------
    def insert_node(self, query_node: PlanNode, keys: NodeKeys,
                    graph_children: list[GraphNode],
                    input_mapping: dict[str, str],
                    assigned_mapping: dict[str, str],
                    query_id: int,
                    expected_versions: list[int] | None = None,
                    expected_leaf_version: int | None = None,
                    catalog: CatalogView | None = None
                    ) -> GraphNode:
        """Copy ``query_node`` into the graph (atomically).

        ``keys`` is ``node_keys(query_node, input_mapping)``, which the
        inserting matcher has just compared: the copy keeps them.

        ``expected_versions`` carries the versions of the anchor children
        observed during matching; ``expected_leaf_version`` carries the
        leaf bucket's insertion counter for leaf inserts.  A mismatch
        means a concurrent insertion changed the neighbourhood, and a
        child no longer live means a concurrent truncation removed it
        (removal does not bump the removed node's own version): either
        way the caller must re-match (:class:`ConcurrencyConflict`).

        ``catalog`` is the inserting query's pinned snapshot (schema
        resolution must agree with what the query was bound against);
        it defaults to the live catalog for legacy callers.
        """
        with self._lock:
            if expected_versions is not None:
                for child, version in zip(graph_children,
                                          expected_versions):
                    if child.version != version or \
                            child.node_id not in self._live:
                        raise ConcurrencyConflict(
                            f"node {child.node_id} changed during"
                            f" matching")
            if not graph_children and expected_leaf_version is not None \
                    and self._leaf_versions.get(keys[1], 0) \
                    != expected_leaf_version:
                raise ConcurrencyConflict(
                    f"leaf bucket {keys[1]!r} changed during matching")
            graph_plan = query_node.remapped(
                input_mapping, assigned_mapping,
                [c.plan for c in graph_children])
            assigned = [assigned_mapping.get(n, n)
                        for n in query_node.assigned_names()]
            schema = self._graph_schema(query_node, input_mapping,
                                        assigned_mapping, self._next_id,
                                        catalog or self.catalog)
            node = GraphNode(self._next_id, graph_plan, keys,
                             graph_children, assigned, schema, query_id)
            view = catalog or self.catalog
            if catalog is not None and len(graph_children) == 1 and \
                    graph_children[0].inserted_by == query_id:
                # stamped from this query's snapshot a moment ago, over
                # the same dependencies
                node.table_incarnations = \
                    graph_children[0].table_incarnations
                node.function_incarnations = \
                    graph_children[0].function_incarnations
            else:
                node.table_incarnations, node.function_incarnations = \
                    view.incarnations_for(node.tables, node.functions)
            self._next_id += 1
            node.age_event = self.event
            # A fresh node counts as accessed *now*: its inserting query
            # is still running, so truncation must treat it as recent.
            node.last_access_event = self.event
            self.nodes.append(node)
            self._live.add(node.node_id)
            if not graph_children:
                self.leaf_index.setdefault(node.hashkey, []).append(node)
                self._leaf_versions[node.hashkey] = \
                    self._leaf_versions.get(node.hashkey, 0) + 1
            else:
                for child in graph_children:
                    child._register_parent(node)
            return node

    def _graph_schema(self, query_node: PlanNode,
                      input_mapping: dict[str, str],
                      assigned_mapping: dict[str, str],
                      node_id: int,
                      catalog: CatalogView | None = None) -> Schema:
        """The node's output schema in graph namespace.

        Computed positionally from the (collision-free) query-namespace
        schema: assigned outputs take their graph-unique names, the rest
        translate through the input mapping.  Two *pass-through* columns
        from different unified subtrees can still collide (each came from
        a different original query); such survivors are disambiguated
        with a node-unique suffix — matching pairs names positionally, so
        the rename is transparent to every consumer.
        """
        query_schema = query_node.output_schema(catalog or self.catalog)
        names = [assigned_mapping.get(name) or input_mapping.get(name, name)
                 for name in query_schema.names]
        if len(set(names)) < len(names):
            seen: set[str] = set()
            for index, graph_name in enumerate(names):
                while graph_name in seen:
                    graph_name = f"{graph_name}@n{node_id}"
                seen.add(graph_name)
                names[index] = graph_name
        return Schema(names, query_schema.types)

    # ------------------------------------------------------------------
    # structure queries used by the benefit machinery
    # ------------------------------------------------------------------
    def dmds(self, node: GraphNode) -> list[GraphNode]:
        """Direct materialized descendants (paper Section III-C)."""
        return _frontier(node, _children, region=False)

    def materialized_frontier_region(self, node: GraphNode
                                     ) -> list[GraphNode]:
        """All descendants reachable without crossing a materialized node,
        *including* the materialized frontier itself — exactly the set
        Algorithm 2 adjusts (DMDs and potential DMDs)."""
        return _frontier(node, _children, region=True)

    def materialized_ancestor_frontier(self, node: GraphNode
                                       ) -> list[GraphNode]:
        """Nearest materialized ancestors (stop climbing at each)."""
        return _frontier(node, GraphNode.parents, region=False)

    # ------------------------------------------------------------------
    # truncation (paper Section II: "the recycler graph has to be
    # truncated periodically ... e.g. by periodically removing subtrees
    # that have not been accessed for some time")
    # ------------------------------------------------------------------
    def truncate(self, min_idle_events: int,
                 pinned: set[int] | frozenset[int] = frozenset(),
                 stop: Callable[[], bool] | None = None) -> int:
        """Remove nodes idle for more than ``min_idle_events`` query
        events.

        A node is kept when it was accessed recently, is materialized,
        is **pinned** (``pinned`` carries node ids that must survive —
        the recycler pins every in-flight node, since a producer holds a
        direct reference it will annotate and admit through), or is a
        (transitive) child of a kept node — subtrees stay intact so the
        remaining statistics and matching structure are consistent.
        Returns the number of removed nodes.

        ``stop`` is a cooperative cancellation hook (the maintenance
        manager passes its shutdown flag): it is consulted at the two
        phase boundaries — before the idle scan and again before the
        mutation is applied — and a fired stop abandons the cycle with
        the graph untouched, so shutdown mid-maintenance is prompt and
        never leaves a half-truncated graph.

        Records the floor :meth:`truncate_due` reads: the lowest stamp
        kept, capped at the current event.
        """
        with self._lock:
            if stop is not None and stop():
                return 0
            cutoff = self.event - min_idle_events
            floor = self.event
            idle: dict[int, GraphNode] = {}
            for node in self.nodes:
                stamp = node.last_access_event
                if stamp >= cutoff or node.entry is not None or \
                        node.node_id in pinned:
                    if stamp < floor:
                        floor = stamp
                else:
                    idle[node.node_id] = node
            # ``nodes`` lists every child before its parents, so one pass
            # over the idle nodes in reverse decides each after all its
            # parents: a child of a kept node is kept too
            for node in reversed(list(idle.values())):
                if _has_parent_outside(node, idle):
                    del idle[node.node_id]
                    if node.last_access_event < floor:
                        floor = node.last_access_event
            if stop is not None and stop():
                return 0
            self._truncate_floor = floor
            return self._remove_nodes(list(idle.values()))

    def truncate_due(self, min_idle_events: int) -> bool:
        """Whether :meth:`truncate` with ``min_idle_events`` could
        remove anything: False while its cutoff (``event −
        min_idle_events``) is at or below the floor the last sweep
        recorded — the lowest ``last_access_event`` it kept, capped at
        its event (0 on a fresh graph).  Every node present then has a
        stamp at or above the cutoff: a stamp is written with the
        clock's current value, so it only rises, and a node inserted
        after the sweep starts at the clock.  Cache evictions do not move
        the floor: an evicted node's stamp was counted.

        Lock-free (two integer reads): an idle cycle costs O(1) and
        never takes the rewrite stripes.  A stale read is harmless — a
        sweep skipped on it is run next cycle — and so is a matched
        node's stamp written from a clock read that a concurrent sweep
        overtook: it lies at most that read behind, and the first sweep
        past the floor collects it."""
        return self.event - min_idle_events > self._truncate_floor

    def _remove_nodes(self, removed: list[GraphNode]) -> int:
        """Detach ``removed`` from every index (caller holds the lock
        and guarantees the complement is child-closed).  Returns the
        number of removed nodes."""
        if not removed:
            return 0
        removed_ids = {n.node_id for n in removed}
        self.nodes = [n for n in self.nodes
                      if n.node_id not in removed_ids]
        self._live.difference_update(removed_ids)
        for node in removed:
            for child in node.children:
                bucket = child.parent_index.get(node.hashkey)
                if bucket and node in bucket:
                    bucket.remove(node)
                    child.version += 1
            if not node.children:
                bucket = self.leaf_index.get(node.hashkey)
                if bucket and node in bucket:
                    bucket.remove(node)
                    self._leaf_versions[node.hashkey] = \
                        self._leaf_versions.get(node.hashkey, 0) + 1
        for node in self.nodes:
            if node.subsumers:
                node.subsumers = [s for s in node.subsumers
                                  if s.node_id not in removed_ids]
        return len(removed)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Summary counters (tests, reports).  Locked: a monitoring
        thread may call this mid-insertion, and iterating the leaf
        index races dict growth."""
        with self._lock:
            return {
                "nodes": len(self.nodes),
                "leaves": sum(len(v) for v in self.leaf_index.values()),
                "event": self.event,
            }

    def check_invariants(self) -> None:
        """Structural sanity checks (used by tests and debug builds),
        child-closure included: a sweep never removes a child of a node
        it keeps, and ``nodes`` lists every child before its parents
        (the order :meth:`truncate` decides in)."""
        position = {node.node_id: at for at, node in enumerate(self.nodes)}
        for at, node in enumerate(self.nodes):
            for child in node.children:
                if child.node_id not in position or \
                        child.node_id not in self._live:
                    raise RecyclerError(
                        f"{node!r} survived its removed child {child!r}")
                if position[child.node_id] > at:
                    raise RecyclerError(
                        f"{node!r} is listed before its child {child!r}")
                bucket = child.parent_index.get(node.hashkey, [])
                if node not in bucket:
                    raise RecyclerError(
                        f"parent index of {child!r} misses {node!r}")
            if not node.children:
                if node not in self.leaf_index.get(node.hashkey, []):
                    raise RecyclerError(f"leaf index misses {node!r}")
            walked = list(node.plan.walk())
            if node.tables != {p.table for p in walked
                               if isinstance(p, Scan)} or \
                    node.functions != {p.function for p in walked
                                       if isinstance(p, TableFunctionScan)}:
                raise RecyclerError(
                    f"dependency sets of {node!r} miss its subtree's")
