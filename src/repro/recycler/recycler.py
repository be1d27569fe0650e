"""The recycler facade (paper Figure 1).

``Recycler.prepare`` runs the full rewrite pipeline on an optimized query
plan — proactive rewriting (PA mode), Algorithm-1 matching/insertion,
reference bookkeeping, reuse substitution (with subsumption), and store
planning — returning a :class:`PreparedQuery`.  ``Recycler.execute`` then
runs the plan and ``finalize`` writes measured statistics back into the
recycler graph.  Store completion callbacks admit results to the cache
mid-execution, exactly as the paper's store operators do.

Concurrency (Section V): the recycler serves many sessions at once.
The rewrite and finalize critical sections take a *lock stripe* keyed
by the query's plan fingerprint (its statement template's, for a text
served from one: :func:`.striping.stripe_key`), so identical plans
serialize while disjoint subgraphs rewrite in parallel; Algorithm-1
matching runs outside any stripe,
relying on the graph's optimistic insertion (``ConcurrencyConflict`` +
re-match) so concurrent sessions never duplicate graph nodes.  With
``block_on_inflight`` a query that matches a node some concurrent query
is currently producing genuinely waits — holding no locks — for the
producer's store to complete and then reuses the materialized entry
("the recycler stalls all but one").  Execution never holds recycler
locks; store callbacks admit results under the cache's one lock without
touching any stripe.  Maintenance — every
:class:`~repro.recycler.maintenance.MaintenanceManager` cycle runs
:meth:`Recycler.truncate_idle` — briefly takes *every* stripe so
in-flight pins are a complete snapshot, and only when an O(1) gate says
the sweep could remove something.  No recycler decision reads a wall clock.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from ..columnar.catalog import Catalog, CatalogSnapshot
from ..columnar.table import Schema, Table
from ..engine.base import PhysicalOperator
from ..engine.cancellation import CancellationToken
from ..engine.cost import DEFAULT_COST_MODEL, CostModel
from ..engine.executor import ExecutionStats, QueryResult
from ..engine.scan import ReuseScanOp
from ..engine.store import StoreOp, StoreStats
from ..exec_service import ExecutionService, Statement, Variant
from ..plan.logical import CachedScan, PlanNode
from ..plan.optimizer import OptimizeContext, PlanOptimizer
from .benefit import BenefitModel
from .cache import RecyclerCache
from .config import MODE_OFF, RecyclerConfig
from .graph import GraphNode, RecyclerGraph
from .inflight import InFlightRegistry
from .matching import MatchResult, match_tree
from .proactive import ProactiveRewriter
from .rewriter import (STORE_MIN_REFS, ReuseInfo, StorePlanner,
                       appended_table, current_entry,
                       recompute_is_cheaper, substitute_reuse)
from .striping import LockStripes, stripe_key
from .subsumption import SubsumptionIndex


class RootHit(NamedTuple):
    """What the last slow-path ``prepare`` of a statement learned about
    the root of the plan it ran — everything the root-hit fast path
    needs to answer the next repeat without walking the tree (kept on
    :attr:`repro.exec_service.Statement.root_hit`, replaced whole)."""

    #: the plan the memo describes: the one candidate of the
    #: :class:`~repro.exec_service.Variant` it was made under, served
    #: only to a prepare that resolved that same object
    plan: PlanNode
    root: GraphNode
    #: the distinct graph nodes the plan's nodes unified with (a repeat
    #: match would access-stamp exactly these), read off the matches:
    #: they hold the plan's nodes and substitution's copies, no other
    nodes: tuple[GraphNode, ...]
    #: plan nodes — a repeat's ``num_matched``
    num_nodes: int
    #: root graph column name -> this statement's column name
    rename: dict[str, str]
    schema: Schema

    @classmethod
    def of(cls, plan: PlanNode, matches: MatchResult,
           snapshot: CatalogSnapshot) -> RootHit:
        root = matches.of(plan)
        return cls(plan, root.graph_node,
                   tuple({match.graph_node
                          for match in matches.by_node.values()}),
                   matches.matched_count + matches.inserted_count,
                   {g: q for q, g in root.mapping.items()},
                   plan.output_schema(snapshot))


@dataclass
class PreparedQuery:
    """Everything the rewrite phase decided about one query."""

    query_id: int
    original_plan: PlanNode
    executed_plan: PlanNode
    matches: MatchResult | None
    producer_token: object = None
    #: the catalog snapshot this query resolves against end to end —
    #: pinned on entry to ``prepare``, consulted by execution (scan
    #: operators) and by store admission (version tags).
    snapshot: CatalogSnapshot | None = None
    #: stripe key of ``original_plan`` (``striping.stripe_key``; finalize
    #: reuses it to take the same stripe prepare rewrote under); ``None``
    #: under ``off``, which takes no stripe.
    fingerprint: int | None = None
    stores: dict[int, object] = field(default_factory=dict)
    reuses: list[ReuseInfo] = field(default_factory=list)
    #: graph nodes this query would reuse/produce that a concurrent query
    #: is currently producing — the virtual-time harness stalls on these;
    #: real sessions block on them (``block_on_inflight``).
    stalls: list[GraphNode] = field(default_factory=list)
    #: wall-clock seconds actually spent blocked on in-flight producers.
    stall_seconds: float = 0.0
    matching_seconds: float = 0.0
    proactive_strategies: tuple[str, ...] = ()
    proactive_executed: bool = False


@dataclass
class QueryRecord:
    """One query's figures, kept on its result only (``result.record``)."""

    query_id: int
    label: str
    total_cost: float
    wall_seconds: float
    matching_seconds: float
    num_reused: int
    num_stores_injected: int
    num_materialized: int
    graph_nodes: int
    proactive: tuple[str, ...] = ()
    stall_seconds: float = 0.0
    #: Algorithm-1 outcome: plan nodes that unified with an existing
    #: graph node vs. nodes inserted fresh — the recycler's match rate
    #: (``summary()["optimizer"]["match_rate"]``) aggregates these.
    num_matched: int = 0
    num_inserted: int = 0


#: the per-query counters a client sees: a served statement's ``stats``
#: (beside its ``query_id``) and, summed, a DB-API cursor's ``statistics``
CLIENT_COUNTERS = ("num_reused", "num_materialized", "num_matched",
                   "num_inserted", "total_cost", "stall_seconds")


@dataclass(slots=True)
class QueryTotals:
    """Running sums over queries, added from ``0`` in order as ``sum``
    over a log would; a thread-shared owner adds and reads under a lock."""

    queries: int = 0
    total_cost: float = 0
    matching_seconds: float = 0
    stall_seconds: float = 0
    num_reused: int = 0
    num_materialized: int = 0
    num_matched: int = 0
    num_inserted: int = 0
    full_plan_hits: int = 0

    def add(self, record: QueryRecord) -> None:
        self.queries += 1
        self.total_cost += record.total_cost
        self.matching_seconds += record.matching_seconds
        self.stall_seconds += record.stall_seconds
        self.num_reused += record.num_reused
        self.num_materialized += record.num_materialized
        self.num_matched += record.num_matched
        self.num_inserted += record.num_inserted
        if record.num_matched > 0 and record.num_inserted == 0:
            self.full_plan_hits += 1

    def as_dict(self, *names: str) -> dict[str, float]:
        return {name: getattr(self, name) for name in names}


class Recycler:
    """Recycling for pipelined query evaluation."""

    def __init__(self, catalog: Catalog,
                 config: RecyclerConfig | None = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL) -> None:
        self.catalog = catalog
        self.config = config or RecyclerConfig()
        self.cost_model = cost_model
        self.graph = RecyclerGraph(catalog, alpha=self.config.alpha)
        self.model = BenefitModel(self.graph)
        self.cache = RecyclerCache(
            self.model, capacity=self.config.cache_capacity,
            live_versions=catalog.versions_for)
        self.subsumption = SubsumptionIndex(self.graph) \
            if self.config.subsumption else None
        self.inflight = InFlightRegistry()
        #: the canonicalizing pre-match pass; stateless — per-query
        #: rewrite counts aggregate into ``_optimizer_counts``.
        self.optimizer = PlanOptimizer()
        #: guards every counter below; the summaries copy them in O(1)
        self._counters_lock = threading.Lock()
        self._optimizer_counts: Counter = Counter()
        #: prepares answered by :meth:`_prepare_root_hit`
        self._root_hits = 0
        #: plan nodes matched from statement templates' memos, and memo
        #: entries that failed validation (``MatchResult`` fields)
        self._memo_nodes = 0
        self._memo_stale = 0
        #: window conjuncts dropped because the snapshot proved them
        #: (counted by :meth:`_new_query`)
        self._conjuncts_proved = 0
        self._query_counter = 0
        #: every finalized query, summed by :meth:`finalize`
        self._totals = QueryTotals()
        self.store_planner = StorePlanner(self.graph, self.model,
                                          self.cache, self.inflight,
                                          self.config,
                                          cost_model=cost_model)
        #: striped locks for the rewrite/finalize critical sections:
        #: stripe = hash(plan fingerprint) % n, so disjoint plan shapes
        #: never contend.  Matching, execution, and store callbacks run
        #: outside every stripe.
        self._stripes = LockStripes()
        #: DDL observability: invalidation sweeps, entries they evicted,
        #: and in-flight producers they aborted (mutated under all
        #: stripes, read anywhere).
        self.ddl_stats = {"invalidations": 0, "entries_evicted": 0,
                          "inflight_aborted": 0}
        #: the one canonical prepare→execute→record pipeline.  Every
        #: frontend — ``Database``, sessions, the DB-API, the server —
        #: shares this instance; :meth:`execute` delegates to it, so a
        #: standalone recycler keeps its historical surface.
        self.service = ExecutionService(self)

    # ------------------------------------------------------------------
    # the rewrite phase
    # ------------------------------------------------------------------
    def prepare(self, query: PlanNode | Statement,
                producer_token: object | None = None,
                block_on_inflight: bool = False,
                cancel_token: CancellationToken | None = None,
                snapshot: CatalogSnapshot | None = None,
                warm_only: bool = False) -> PreparedQuery | None:
        """Run the rewrite pipeline (paper Figure 1) for one
        :class:`~repro.exec_service.Statement` — the execution service's
        cached one for a SQL text, or a prebuilt plan made one here
        (``Statement.prebuilt``: canonicalized, never cached).

        One sequence: resolve the statement's variant for ``snapshot``
        (``Statement.variant``: the plan without the moving-window
        conjuncts the snapshot proves true, then in ``pa`` the proactive
        rewrite) → the root-hit memo, if it was made for that variant's
        one plan to run (:meth:`_prepare_root_hit`) → the slow path:
        Algorithm-1 matching, reference bookkeeping, in-flight waits,
        reuse substitution and store planning, leaving a memo for the
        next repeat.  A steered proactive variant has two plans to run
        (steering may fall back to the unrewritten one) and always takes
        the slow path.  ``off`` runs the variant's plan as it is.

        With ``block_on_inflight`` the calling thread stalls — before the
        rewrite critical section, holding no locks — on every matched
        node a concurrent query is producing, then reuses what the
        producers left behind.  ``cancel_token`` is checked on entry and
        after every such wait (whose timeout it bounds); never after
        store planning, so an abort cannot leak a registration.
        ``snapshot`` is the query's pinned catalog view (captured here
        otherwise): everything above resolves against it, and admission
        tags entries with its versions.

        ``warm_only`` is for a caller that must not block or run for
        long (a server's event loop): the prepare is that root hit or
        nothing.  Otherwise it returns ``None`` having taken no query id
        and changed no recycler state."""
        if cancel_token is not None:
            cancel_token.check()
        if snapshot is None:
            snapshot = self.catalog.snapshot()
        statement = query if isinstance(query, Statement) else \
            Statement.prebuilt(query, snapshot, self.optimize)
        variant = statement.variant(snapshot, self._proactive_variant)
        plan, candidates = variant.plan, variant.candidates
        memo = statement.root_hit
        if memo is not None and memo.plan is not candidates[0]:
            memo = None
        if warm_only and memo is None:
            return None
        if self.config.mode == MODE_OFF:
            query_id, token = self._new_query(producer_token,
                                              variant.proved)
            return PreparedQuery(query_id=query_id, original_plan=plan,
                                 executed_plan=plan, matches=None,
                                 producer_token=token, snapshot=snapshot)

        fingerprint = stripe_key(statement, plan)
        stripe = self._stripes.for_key(fingerprint)
        if memo is not None:
            with stripe:
                prepared = self._prepare_root_hit(
                    memo, variant, producer_token, snapshot, fingerprint)
            if prepared is not None or warm_only:
                return prepared
        query_id, token = self._new_query(producer_token, variant.proved)
        self.graph.tick()

        executed, matches, matching_seconds = self._match(
            statement, variant, snapshot, query_id, stripe)
        stalls = self._collect_stalls(executed, matches, token)
        stall_seconds = self._await_producers(stalls, token, cancel_token) \
            if block_on_inflight else 0.0

        # Phase 4 — reuse substitution + store planning; entries admitted
        # by awaited producers are picked up here as ordinary reuses.
        # The callbacks carry the producer token so completion releases
        # only this query's own registrations (owner-checked).
        with stripe:
            outcome = substitute_reuse(executed, matches, self.graph,
                                       self.cache, self.subsumption,
                                       self.config, snapshot,
                                       self.cost_model)
            if outcome.cost_skips:
                with self._counters_lock:
                    self._optimizer_counts["reuse_cost_skips"] += \
                        outcome.cost_skips
            stores = self.store_planner.plan_stores(
                outcome, token,
                on_complete=lambda table, stats, node, _t=token,
                _s=snapshot:
                    self._on_store_complete(table, stats, node, _t, _s),
                on_abort=lambda node, _t=token:
                    self._on_store_abort(node, _t),
                snapshot=snapshot)
        if len(candidates) == 1:
            # On *every* slow-path prepare, cold ones included: the
            # first repeat of a statement whose root this query is about
            # to materialize must already find the memo.
            statement.root_hit = RootHit.of(executed, matches, snapshot)

        return PreparedQuery(
            query_id=query_id, original_plan=plan,
            executed_plan=outcome.plan, matches=matches,
            producer_token=token, fingerprint=fingerprint,
            snapshot=snapshot,
            stores=stores, reuses=outcome.reuses,
            stalls=stalls, stall_seconds=stall_seconds,
            matching_seconds=matching_seconds,
            proactive_strategies=variant.strategies,
            proactive_executed=executed is not plan)

    def _match(self, statement: Statement, variant: Variant,
               snapshot: CatalogSnapshot, query_id: int, stripe
               ) -> tuple[PlanNode, MatchResult, float]:
        """Phases 1–2 of the slow path, per candidate of ``variant``:
        Algorithm-1 matching, lock-free (concurrent inserts are caught
        by the graph's optimistic validation and re-matched), then under
        ``stripe`` the references (hR) — each proactive trigger raises
        the benefit of its common parts (paper Section IV-B) — and
        steering: a candidate but the last runs only once its anchor
        pays.  Returns the plan to run, its matches and the seconds
        spent matching."""
        hook = self.subsumption.on_insert if self.subsumption else None
        subtrees = statement.template.matches \
            if statement.template is not None else None
        seconds = 0.0
        credited: list[GraphNode] = []
        for plan in variant.candidates:
            started = time.perf_counter()
            matches = match_tree(plan, self.graph, snapshot, query_id,
                                 subsumption_hook=hook, memo=subtrees)
            seconds += time.perf_counter() - started
            if matches.memo_nodes or matches.memo_stale:
                with self._counters_lock:
                    self._memo_nodes += matches.memo_nodes
                    self._memo_stale += matches.memo_stale
            with stripe:
                credited += self.model.record_query_references(
                    plan, matches)
                if plan is variant.candidates[-1] or \
                        self._steering_accepts(matches, variant.anchors):
                    for node in credited:
                        if node.is_materialized:
                            self.cache.refresh(node)
                    return plan, matches, seconds

    def _await_producers(self, stalls: list[GraphNode], token: object,
                         cancel_token: CancellationToken | None) -> float:
        """Phase 3 — in-flight sharing: wait, lock-free, for each
        producer of ``stalls`` to complete or abort its store; the
        seconds spent waiting."""
        seconds = 0.0
        for node in stalls:
            timeout = self.config.inflight_wait_timeout
            if cancel_token is not None:
                # A deadline must fire even while stalled on a
                # producer; a cancel wakes the wait via
                # ``inflight.cancel`` and is re-raised here.
                timeout = cancel_token.bound_timeout(timeout)
            seconds += self.inflight.wait_for(node, token, timeout=timeout)
            if cancel_token is not None:
                cancel_token.check()
        return seconds

    def _proactive_variant(self, variant: Variant,
                           snapshot: CatalogSnapshot) -> Variant:
        """``variant`` proactively rewritten (``pa``, paper Section
        IV-B; any other mode leaves it as it is).  Benefit-steered, the
        rewrite is a candidate before the unrewritten plan — unless it
        has no anchor to steer on, when steering would always run it."""
        if not self.config.proactive_enabled:
            return variant
        proactive = ProactiveRewriter(snapshot, self.config).apply(
            variant.plan)
        if not proactive.applications:
            return variant
        anchors = tuple(a.anchor for a in proactive.applications
                        if a.anchor is not None)
        steered = self.config.proactive_benefit_steered and anchors
        return variant._replace(
            candidates=(proactive.plan, variant.plan) if steered
            else (proactive.plan,),
            strategies=tuple(a.strategy
                             for a in proactive.applications),
            anchors=anchors)

    def optimize(self, plan: PlanNode, snapshot: CatalogSnapshot,
                 ctx: OptimizeContext | None = None) -> PlanNode:
        """Canonicalize ``plan``, adding the rewrites performed to the
        ``summary()["optimizer"]`` counters.  Called once per plan: by
        ``Statement.prebuilt`` for prebuilt plans, by the execution
        service when it builds a cached statement (with ``ctx`` when the
        plan is a statement template's: see ``PlanOptimizer.optimize``)."""
        plan, rewrites = self.optimizer.optimize(plan, snapshot, ctx)
        self.count_rewrites(rewrites)
        return plan

    def count_rewrites(self, rewrites: Counter) -> None:
        """Add ``rewrites`` to the ``summary()["optimizer"]`` counters —
        also for a plan substituted from a statement template's, which
        counts the rewrites that template's plan took."""
        if rewrites:
            with self._counters_lock:
                self._optimizer_counts.update(rewrites)

    def _new_query(self, producer_token: object | None, proved: int,
                   root_hit: bool = False) -> tuple[int, object]:
        """The next query id, and the token the query's in-flight
        registrations go under: the caller's, else that id.  ``proved``
        is the query's proved windows, counted here — once the prepare
        is committed to the query — and so is a ``root_hit``."""
        with self._counters_lock:
            self._query_counter += 1
            query_id = self._query_counter
            if proved:
                self._conjuncts_proved += proved.bit_count()
            if root_hit:
                self._root_hits += 1
        return query_id, \
            query_id if producer_token is None else producer_token

    def _prepare_root_hit(self, memo: RootHit, variant: Variant,
                          producer_token: object | None,
                          snapshot: CatalogSnapshot,
                          fingerprint: int) -> PreparedQuery | None:
        """The O(1) full-plan hit: answer a repeated statement from its
        root's cached result without walking the plan — no matching,
        reference bookkeeping over the tree, stall collection, reuse
        substitution or store planning (the fingerprint is memoized on
        the plan).  Caller holds the plan's stripe, and has checked
        that ``memo`` was made for ``variant``'s one plan to run.

        Taken when the memoized root still has an entry this snapshot
        may consume and reuse pays — the two gates ``substitute_reuse``
        applies (:func:`~repro.recycler.rewriter.current_entry`,
        :func:`~repro.recycler.rewriter.recompute_is_cheaper`);
        otherwise returns ``None`` having changed nothing, and the slow
        path runs.  A materialized node is never truncated or
        collected, and version tags only ever equal the snapshot's when
        no DDL separates them, so the slow path would unify the plan
        with exactly ``memo.nodes`` and substitute the root: the state
        changes below are the ones it would have made (``tick``, access
        stamps on every matched node, one reference on the root — its
        descendants sit behind a materialized ancestor and get none —
        and one noted reuse, whose refresh re-positions the entry), and
        the query record reads the same (``num_matched`` = plan nodes,
        ``num_inserted`` = 0, one exact reuse, the variant's proactive
        strategies).  None of it walks the graph or scans the cache:
        the refresh reads the root's memoized true cost
        (:meth:`~repro.recycler.benefit.BenefitModel.true_cost`) and
        finds the entry by bisection; the counters lock and the graph
        lock are taken once each, and the access stamps are one
        attribute write per matched node.

        One intended difference: with ``block_on_inflight`` the slow
        path would wait on an in-flight *descendant* of the root even
        though the cached root needs nothing from it; this path does
        not wait."""
        root = memo.root
        entry = current_entry(root, snapshot)
        if entry is None or recompute_is_cheaper(root, self.cost_model):
            return None
        query_id, token = self._new_query(producer_token, variant.proved,
                                          root_hit=True)
        event = self.graph.tick(referenced=root)
        for node in memo.nodes:
            node.last_access_event = event
        self.cache.note_reuse(entry)
        return PreparedQuery(
            query_id=query_id, original_plan=variant.plan,
            executed_plan=CachedScan(entry, memo.schema,
                                     rename=memo.rename,
                                     label=f"reuse:{root.node_id}"),
            matches=MatchResult(matched_count=memo.num_nodes),
            producer_token=token, snapshot=snapshot,
            fingerprint=fingerprint,
            reuses=[ReuseInfo(root, root, "exact")],
            proactive_strategies=variant.strategies,
            proactive_executed=memo.plan is not variant.plan)

    def _steering_accepts(self, matches: MatchResult,
                          anchors: tuple[PlanNode, ...]) -> bool:
        """Benefit-steered proactive execution: run the expensive variant
        only once a shared anchor of it is cached or recurring."""
        nodes = (matches.of(anchor).graph_node for anchor in anchors
                 if matches.contains(anchor))
        return any(node.is_materialized or self.graph.effective_refs(node)
                   >= STORE_MIN_REFS for node in nodes)

    def _collect_stalls(self, plan: PlanNode, matches: MatchResult,
                        token: object) -> list[GraphNode]:
        if not self.inflight:
            return []  # no producer: a racing one is missed either way
        stalls: list[GraphNode] = []
        seen: set[int] = set()
        for node in plan.walk():
            if not matches.contains(node):
                continue
            graph_node = matches.of(node).graph_node
            if graph_node.node_id in seen:
                continue
            seen.add(graph_node.node_id)
            producer = self.inflight.producer_of(graph_node)
            if producer is not None and producer != token and \
                    graph_node.entry is None:
                stalls.append(graph_node)
        return stalls

    # ------------------------------------------------------------------
    # execution + finalize
    # ------------------------------------------------------------------
    def execute(self, plan: PlanNode, label: str = "",
                producer_token: object | None = None,
                block_on_inflight: bool = False,
                cancel_token: CancellationToken | None = None,
                snapshot: CatalogSnapshot | None = None,
                remote: object | None = None) -> QueryResult:
        """Prepare, execute, and finalize one query — a thin delegate to
        the shared :class:`~repro.exec_service.ExecutionService`
        pipeline (``self.service``), kept for callers that drive a
        recycler directly.

        ``cancel_token`` (see :mod:`repro.engine.cancellation`) makes
        the whole pipeline abortable: cancelled or past-deadline queries
        raise :class:`~repro.errors.QueryCancelled` /
        :class:`~repro.errors.QueryTimeout` within one batch boundary,
        and the abandon path retires the producer token — its in-flight
        registrations are released (waking stalled consumers) and no
        cache entry is published.

        ``snapshot`` pins the catalog view for the whole query (captured
        in ``prepare`` otherwise); scan operators resolve tables against
        it, so a concurrent ``register_table``/``drop_table`` never
        changes what a running query reads.

        ``remote`` is an optional :class:`~repro.engine.shard.pool.
        ShardRuntime`: when the prepared query is *cold* (no reuse
        substitutions, only shared-table scans at the shared versions),
        execution fans out to a worker process and only the rewrite and
        admission phases run here — the recycler stays authoritative.
        Warm or ineligible queries, and queries racing a runtime
        shutdown, run locally as if ``remote`` were None.
        """
        return self.service.execute(
            plan, frontend="recycler", label=label,
            producer_token=producer_token,
            block_on_inflight=block_on_inflight,
            cancel_token=cancel_token, snapshot=snapshot, remote=remote,
            validate=False)

    def _admit_remote_stores(self, prepared: PreparedQuery,
                             outcome) -> int:
        """Replay store decisions for a remotely executed query.

        The worker materializes every planned store unconditionally
        (it has no benefit model); the parent replays each request here
        with the *exact* measured numbers — the same end-of-stream
        exact decision a local ``StoreOp`` makes — so speculative
        stores still go through ``decide`` and rejected results release
        their in-flight registrations without touching the cache."""
        from ..engine.store import MODE_SPECULATE, SpeculationEstimate
        nodes = list(prepared.executed_plan.walk())
        admitted = 0
        for position, table, sstats in outcome.stores:
            request = prepared.stores.get(id(nodes[position]))
            if request is None:  # pragma: no cover - defensive
                continue
            if request.mode == MODE_SPECULATE:
                estimate = SpeculationEstimate(
                    est_cost=sstats.measured_cost,
                    est_size_bytes=sstats.size_bytes,
                    est_rows=sstats.rows, progress=1.0, exact=True)
                decide = request.decide
                if not (decide and decide(estimate, request.tag)):
                    if request.on_abort is not None:
                        request.on_abort(request.tag)
                    continue
            if request.on_complete is not None:
                request.on_complete(table, sstats, request.tag)
                admitted += 1
        return admitted

    def finalize(self, prepared: PreparedQuery, stats: ExecutionStats,
                 label: str = "") -> QueryRecord:
        """Annotate the recycler graph with measured statistics and count
        the query (paper: 'after the query has been executed, each
        operator annotates its equivalent node in the recycler graph').

        A query with no physical tree or shipped statistics to annotate
        that planned no store — an ``off`` query, a full-plan hit —
        registered nothing in the in-flight registry, so it takes no
        stripe and releases nothing: a producer token several queries
        share keeps the registrations of those that did, until their
        own finalize."""
        if prepared.matches is not None and (
                stats.physical_root is not None or prepared.stores or
                (stats.remote and stats.node_stats)):
            with self._stripes.for_key(prepared.fingerprint):
                if stats.physical_root is not None:
                    self._annotate(stats.physical_root, prepared.matches)
                elif stats.remote and stats.node_stats:
                    self._annotate_remote(prepared, stats)
                self.inflight.release_all(prepared.producer_token)
        record = QueryRecord(
            query_id=prepared.query_id, label=label,
            total_cost=stats.total_cost,
            wall_seconds=stats.wall_seconds,
            matching_seconds=prepared.matching_seconds,
            num_reused=len(prepared.reuses),
            num_stores_injected=len(prepared.stores),
            num_materialized=stats.num_stored,
            graph_nodes=len(self.graph.nodes),
            proactive=tuple(prepared.proactive_strategies),
            stall_seconds=prepared.stall_seconds,
            num_matched=prepared.matches.matched_count
            if prepared.matches is not None else 0,
            num_inserted=prepared.matches.inserted_count
            if prepared.matches is not None else 0)
        with self._counters_lock:
            self._totals.add(record)
        return record

    def abandon(self, prepared: PreparedQuery) -> None:
        """A prepared query will never finalize (execution failed): drop
        its in-flight registrations so stalled queries wake up instead of
        waiting for a store that will never complete.  The token is
        retired — a store racing to register under it afterwards is
        refused, so an abandoned query can never leave a stale entry."""
        self.cancel(prepared.producer_token)

    def cancel(self, token: object) -> list[int]:
        """Abandon ``token``'s query from *any* thread — even while it is
        blocked waiting on an in-flight producer (pool shutdown
        mid-query).  Wakes the waiter, drops the token's registrations,
        and refuses registrations it would plant afterwards (its
        producer may already have finalized, in which case the consumer
        is past waiting and busy planning stores).  Tokens are
        per-query unique; a cancelled token stays retired."""
        return self.inflight.cancel(token)

    def _annotate(self, op: PhysicalOperator,
                  matches: MatchResult) -> float:
        """Post-order walk computing each operator's *base* cost: reuse
        scans contribute the cached node's stored base cost (undoing
        Eq. 2), store overhead is excluded."""
        if isinstance(op, ReuseScanOp):
            handle = op._handle
            node = getattr(handle, "node", None)
            return node.bcost if node is not None else op.self_cost
        if isinstance(op, StoreOp):
            return self._annotate(op.children[0], matches)
        base = op.self_cost + sum(self._annotate(child, matches)
                                  for child in op.children)
        logical = op.logical
        if logical is not None and op.exhausted and \
                matches.contains(logical):
            graph_node = matches.of(logical).graph_node
            # Atomic under the graph lock: finalizes of different plan
            # shapes (different stripes) may annotate a shared node.
            self.graph.record_execution(graph_node, base, op.rows_out,
                                        op.bytes_out)
        return base

    def _annotate_remote(self, prepared: PreparedQuery,
                         stats: ExecutionStats) -> None:
        """Annotate from shipped per-position statistics instead of a
        physical tree (sharded execution: the operators lived in the
        worker process).  Remote plans are always *cold* — no reuse
        scans, no store overhead inside ``cumulative_cost`` (the
        worker's ``_collect`` already excludes it) — so the shipped
        cumulative cost *is* the base cost Eq. 2 wants."""
        matches = prepared.matches
        for position, node in enumerate(prepared.executed_plan.walk()):
            ns = stats.node_stats.get(position)
            if ns is None or not ns.exhausted:
                continue
            if not matches.contains(node):
                continue
            graph_node = matches.of(node).graph_node
            self.graph.record_execution(graph_node, ns.cumulative_cost,
                                        ns.rows_out, ns.bytes_out)

    # ------------------------------------------------------------------
    # store callbacks
    # ------------------------------------------------------------------
    def _on_store_complete(self, table: Table, stats: StoreStats,
                           graph_node: GraphNode,
                           token: object = None,
                           snapshot: CatalogSnapshot | None = None) -> None:
        """A store operator finished materializing: reconstruct the base
        cost (measured cost with reuse emissions swapped for the cached
        results' base costs), update the node, admit to the cache.

        Fires mid-execution on the producing session's thread and takes
        **no stripe**: admission holds only the cache's one lock, so a
        completing store never queues behind another session's rewrite.
        The release wakes every session stalled on this node.

        ``snapshot`` is the producing query's pinned catalog view: the
        entry is tagged with its versions, and admission rejects the
        publication when a DDL has already moved the live catalog past
        them — the invalidate-then-swap race, closed at its last
        possible point."""
        base_cost = stats.measured_cost
        for handle, emit_cost in stats.reused:
            node = getattr(handle, "node", None)
            if node is not None:
                base_cost += node.bcost - emit_cost
        # Graph-locked: a concurrent finalize of another plan sharing
        # this node annotates the same fields via record_execution.
        self.graph.record_measurement(graph_node, base_cost, stats.rows,
                                      stats.size_bytes)
        # The producing query materialized the table under its own
        # column names; the cache stores results in the graph
        # namespace so any future query (with any aliases) can be
        # renamed onto it.
        to_graph = dict(zip(table.schema.names,
                            graph_node.schema.names))
        view = snapshot or self.catalog
        versions = view.versions_for(graph_node.tables,
                                     graph_node.functions)
        self.cache.admit(graph_node, table.rename(to_graph),
                         table_versions=versions[0],
                         function_versions=versions[1],
                         table_rows=view.row_counts(graph_node.tables))
        self.inflight.release(graph_node, token)

    def _on_store_abort(self, graph_node: GraphNode,
                        token: object = None) -> None:
        """Speculation rejected the result: release any waiters."""
        self.inflight.release(graph_node, token)

    # ------------------------------------------------------------------
    # maintenance entry points
    # ------------------------------------------------------------------
    def flush_cache(self) -> int:
        """Evict everything (simulating update-driven invalidation)."""
        with self._stripes.all():
            return self.cache.flush()

    def invalidate_table(self, table: str) -> int:
        """Evict every cached dependent of ``table`` the live catalog
        cannot extend, and abort its in-flight producers.

        After an append, a dependent whose plan is append-monotone in
        ``table`` and which is behind on nothing else stays cached
        (:func:`~repro.recycler.rewriter.appended_table`): its next
        reader extends it over the appended rows.  Every other change
        to ``table`` moves its base version, so nothing survives it.

        The abort is the ``on_abort`` release path, applied per node:
        each in-flight registration on a node that reads ``table`` is
        released (owner-checked), which wakes every consumer stalled on
        it — they recompute against their own snapshots instead of
        waiting for (and then rejecting) an old-table result.  The
        producer keeps its registrations on nodes that do *not* read
        ``table`` (their results are still current and admissible), and
        its own query is *not* cancelled — it still returns the answer
        its snapshot owes, while its store publication for stale nodes
        is version-rejected at admission.

        Called by :meth:`~repro.db.Database.register_table` *after* the
        catalog swap-and-bump, so between bump and sweep the version
        tags keep every interleaving safe (see
        :mod:`repro.recycler.cache`)."""
        return self._invalidate(
            lambda node: table.lower() in node.tables,
            lambda: self.cache.invalidate_table(
                table, keep=lambda entry:
                    appended_table(entry, self.catalog) is not None))

    def invalidate_function(self, function: str) -> int:
        """Evict every cached result derived from ``function`` (and
        abort its in-flight producers) — the table-function counterpart
        of :meth:`invalidate_table`, used when a function is
        re-registered."""
        return self._invalidate(
            lambda node: function.lower() in node.functions,
            lambda: self.cache.invalidate_function(function))

    def _invalidate(self, depends, evict) -> int:
        """One DDL sweep under all stripes: abort in-flight producers
        of ``depends``-matching nodes, then run ``evict`` and record
        the counters."""
        with self._stripes.all():
            aborted = self._abort_inflight_producers(depends)
            evicted = evict()
            self.ddl_stats["invalidations"] += 1
            self.ddl_stats["entries_evicted"] += evicted
            self.ddl_stats["inflight_aborted"] += aborted
            return evicted

    def _abort_inflight_producers(self, depends) -> int:
        """Release the in-flight registration of every node for which
        ``depends(node)`` holds (waking its stalled consumers); returns
        the number of distinct producer tokens affected.

        Caller holds all stripes, so no new registration can be planted
        concurrently (store planning runs under a stripe); the release
        is owner-checked against the observed producer, so a completing
        store racing this sweep cannot be clobbered after a consumer
        re-registers the node."""
        tokens = set()
        for node, producer in self.inflight.producers():
            if depends(node) and self.inflight.release(node, producer):
                tokens.add(producer)
        return len(tokens)

    def truncate_idle(self, min_idle_events: int | None = None,
                      stop: Callable[[], bool] | None = None) -> int:
        """Truncate graph subtrees idle beyond ``min_idle_events``
        (config default), pinning every in-flight node.

        Holds **all** stripes: no rewrite can register a new producer
        while the pin snapshot is taken and applied, so an in-flight
        node can never be truncated out from under its producer.
        Queries blocked in phase-3 waits (outside stripes) are safe via
        recency — their matched nodes were just access-stamped — and
        via the store planner's liveness re-check.

        A sweep that could remove nothing — no node's stamp has fallen
        behind the cutoff since the last sweep — is skipped without the
        stripes (:meth:`~repro.recycler.graph.RecyclerGraph.truncate_due`).
        ``stop`` passes through to
        :meth:`~repro.recycler.graph.RecyclerGraph.truncate` — the
        maintenance manager uses it for prompt shutdown.
        """
        if min_idle_events is None:
            min_idle_events = self.config.truncate_min_idle_events
        if not self.graph.truncate_due(min_idle_events):
            return 0
        with self._stripes.all():
            return self.graph.truncate(
                min_idle_events, pinned=self.inflight.active_nodes(),
                stop=stop)

    def summary(self) -> dict[str, object]:
        """Aggregate counters for reports and tests."""
        with self._counters_lock:
            totals = replace(self._totals)
        return {
            "queries": totals.queries,
            "graph": self.graph.stats(),
            "cache_entries": len(self.cache),
            "cache_used_bytes": self.cache.used,
            "cache": self.cache.counters,
            "total_cost": totals.total_cost,
            "total_matching_seconds": totals.matching_seconds,
            "total_stall_seconds": totals.stall_seconds,
        }

    def optimizer_summary(self) -> dict[str, object]:
        """Canonicalization observability: per-strategy rewrite counts
        (plus cost-gated reuse skips) and two recycler match rates —
        ``match_rate`` is matched / (matched + inserted) plan *nodes*
        across all finalized queries; ``plan_hit_rate`` is the fraction
        of queries whose every node matched an existing graph node (the
        direct measure of the shape-miss bug class: an equivalent plan
        that misses inserts a duplicate subtree and drops out of this
        numerator).

        ``rewrites`` counts rewrites *actually performed*: a statement
        served from the execution service's statement cache was
        canonicalized when it was built and adds none on a hit.
        ``root_hits`` is the number of prepares the root-hit fast path
        answered (they count as full-plan hits in both rates).
        ``memo_nodes`` counts the plan nodes matched by replaying a
        statement template's memo of a literal-free subtree (part of
        ``nodes_matched``), ``memo_stale`` the memo entries that failed
        validation and were matched afresh.  ``conjuncts_proved``
        counts, over all prepares, the range conjuncts dropped because
        the query's snapshot proved them true of every row (moving
        windows: ``exec_service.Window``)."""
        with self._counters_lock:
            counts = dict(self._optimizer_counts)
            totals = replace(self._totals)
            root_hits = self._root_hits
            memo_nodes, memo_stale = self._memo_nodes, self._memo_stale
            conjuncts_proved = self._conjuncts_proved
        cost_skips = counts.pop("reuse_cost_skips", 0)
        matched, inserted = totals.num_matched, totals.num_inserted
        total = matched + inserted
        return {
            "rewrites": dict(sorted(counts.items())),
            "reuse_cost_skips": cost_skips,
            "nodes_matched": matched,
            "nodes_inserted": inserted,
            "match_rate": matched / total if total else 0.0,
            "plan_hit_rate": totals.full_plan_hits / totals.queries
            if totals.queries else 0.0,
            "root_hits": root_hits,
            "memo_nodes": memo_nodes,
            "memo_stale": memo_stale,
            "conjuncts_proved": conjuncts_proved,
        }
