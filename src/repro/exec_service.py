"""The transport-agnostic execution core.

Every frontend — the :class:`~repro.db.Database` facade and the
:class:`~repro.session.Session` that session pools, the PEP 249 DB-API
(:mod:`repro.dbapi`) and both servers (:mod:`repro.server`) issue
their queries through — funnels queries through one
:class:`ExecutionService`.  The service owns the **single** canonical
pipeline:

1. pin a catalog snapshot (unless the caller already pinned one);
2. look SQL text up in the statement cache — a miss takes the plan of
   its statement template when another text of the same shape was
   planned before (substituting the text's literals), else binds the
   text (from the template, or by lex / parse / bind), validates and
   canonicalizes it (and re-populates the cache) — or validate a
   prebuilt plan;
3. build the :class:`~repro.engine.cancellation.CancellationToken` from
   uniform ``timeout``/``deadline`` limits (unless the caller supplies
   a token it also needs for cross-thread cancellation);
4. ``Recycler.prepare`` → remote-or-local execution → ``finalize``
   (with ``abandon`` unwinding on any failure);
5. account the outcome into per-frontend statistics.

Concurrency: the service adds no locking of its own around execution —
the recycler is fully thread-safe — and keeps its per-frontend counters
under one small lock.  It is shared by every frontend of a database, so
``Database.summary()["service"]`` shows where traffic comes from.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, NamedTuple

from .columnar.batch import VECTOR_SIZE
from .columnar.types import date_to_days
from .engine.cancellation import CancellationToken
from .engine.executor import QueryResult, execute_plan
from .engine.shard.pool import ShardUnavailable
from .errors import CatalogError, QueryCancelled, QueryTimeout
from .expr.analysis import conjoin, split_conjuncts, window_bound
from .expr.nodes import Expr
from .plan.logical import PlanNode, Scan, Select, TableFunctionScan
from .plan.optimizer import OptimizeContext, normalizes
from .plan.validate import validate_plan
from .sql import scan_literals, sql_to_plan, sql_to_template

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .columnar.catalog import CatalogSnapshot
    from .columnar.table import Schema
    from .recycler.recycler import Recycler, RootHit

    #: ``(is_function, name, schema)`` per table / function a text names
    Dependencies = tuple[tuple[bool, str, Schema], ...]

#: statements the cache retains, and statement templates (each LRU by
#: entry count).  A served dashboard or the paper's SkyServer mix
#: repeats a few hundred distinct texts; a retained TPC-H plan costs
#: ~10 KiB.
STATEMENT_CACHE_ENTRIES = 256


class _BoundText:
    """A plan bound from SQL text plus what must still hold for the
    plan to stand in for the text.

    Binder, validator and optimizer read nothing from the catalog but
    the *schemas* of the tables and table functions a statement names
    (never statistics or row counts), so the plan stays right for any
    snapshot in which each of those still exists with an equal schema —
    ``append_rows`` keeps it; add/rename column, drop, and a
    re-registration that changes a schema do not.  (What a snapshot's
    statistics prove about the plan is decided per query, by
    ``Recycler.prepare``: see :class:`Window`.)"""

    __slots__ = ("dependencies",)

    def __init__(self, dependencies: "Dependencies") -> None:
        #: ``(is_function, name, schema)`` per table / function named
        self.dependencies = dependencies

    def valid_for(self, snapshot: "CatalogSnapshot") -> bool:
        """Whether every dependency exists in ``snapshot`` with the
        schema the text was bound against — the existence-and-types
        property ``validate_plan`` guards."""
        try:
            for is_function, name, schema in self.dependencies:
                live = _schema_of(snapshot, is_function, name)
                if live is not schema and live != schema:
                    return False
        except CatalogError:
            return False
        return True


class Statement(_BoundText):
    """One SQL text's bound, validated and canonicalized plan — or a
    prebuilt plan (:meth:`prebuilt`), which is never cached.  Immutable
    and shared by every thread that issues the text, except
    :attr:`root_hit`, which the recycler replaces whole, and the
    :class:`Variant` :meth:`variant` resolves."""

    __slots__ = ("plan", "root_hit", "template", "windows", "_pruned",
                 "_variant")

    def __init__(self, plan: PlanNode, dependencies: Dependencies,
                 template: "StatementTemplate | None" = None) -> None:
        super().__init__(dependencies)
        #: what ``Recycler.prepare`` resolves its variants from — the
        #: same object on every repeat, so its memoized schemas, hash
        #: keys and fingerprint are computed once
        self.plan = plan
        #: the recycler's memo of the root of the plan the last slow
        #: path ran (see :class:`~repro.recycler.recycler.RootHit`)
        self.root_hit: "RootHit | None" = None
        #: the template whose :attr:`~StatementTemplate.plan` ``plan``
        #: was substituted from (or is), whose memo matching replays
        self.template = template
        #: the conjuncts of ``plan`` a snapshot may prove (see
        #: :class:`Window`), found once; empty for most statements
        self.windows = windows_of(plan, {
            name: schema for is_function, name, schema in dependencies
            if not is_function}.__getitem__)
        #: proof outcome (:func:`proved_windows`) -> ``plan`` without
        #: the conjuncts it proves
        self._pruned = {0: plan} if self.windows else None
        #: the last :meth:`variant`
        self._variant: Variant | None = None

    @classmethod
    def prebuilt(cls, plan: PlanNode, snapshot: "CatalogSnapshot",
                 optimize: "Callable[[PlanNode, CatalogSnapshot], PlanNode]"
                 ) -> Statement:
        """A plan built without SQL text, canonicalized by ``optimize``
        (``Recycler.optimize``).  Never cached: built per execution."""
        plan = optimize(plan, snapshot)
        return cls(plan, _dependencies(plan, snapshot))

    def variant(
            self, snapshot: "CatalogSnapshot",
            rewrite: "Callable[[Variant, CatalogSnapshot], Variant] | None"
            = None) -> Variant:
        """What this statement runs under ``snapshot``: ``plan`` without
        the :attr:`windows` the snapshot proves — one plan object per
        proof outcome, so each keeps its memoized schemas and
        fingerprint — passed through ``rewrite`` (the recycler's
        proactive rewrite).  Resolved again only when the snapshot's DDL
        clock moved: within one catalog it names the state of every
        table, statistics and binning specs included."""
        last = self._variant
        if last is not None and last.clock == snapshot.ddl_clock:
            return last
        proved, plan = 0, self.plan
        if self.windows:
            proved = proved_windows(self.windows, snapshot)
            plan = self._pruned.get(proved)
            if plan is None:
                plan = self._pruned.setdefault(proved, without_windows(
                    self.plan, self.windows, proved))
        variant = Variant(snapshot.ddl_clock, proved, plan, (plan,))
        if rewrite is not None:
            variant = rewrite(variant, snapshot)
        self._variant = variant
        return variant


class Variant(NamedTuple):
    """A :class:`Statement` as the snapshots of one DDL clock run it."""

    clock: int
    #: the windows proved (bits of :func:`proved_windows`), and the
    #: statement's plan without them
    proved: int
    plan: PlanNode
    #: the plans to run, in order: a proactive rewrite of ``plan``,
    #: then ``plan`` if steering may fall back to it; else ``(plan,)``
    candidates: tuple[PlanNode, ...]
    #: the proactive strategies applied, and the subtrees steering reads
    strategies: tuple[str, ...] = ()
    anchors: tuple[PlanNode, ...] = ()


class Window(NamedTuple):
    """A conjunct of a ``Select`` directly over a ``Scan`` that a
    snapshot's statistics may prove true of every row the scan reads:
    every value of ``column`` below ``limit`` (``upper``) or above it
    satisfies it (:func:`repro.expr.analysis.window_bound`).  A
    dashboard's ``WHERE ts < <rows now>`` is one, and once the
    snapshot's max ``ts`` lies below the bound the conjunct filters
    nothing: ``Recycler.prepare`` drops it, so the plan is the
    same one every time the bound moves and the recycler can reuse — or
    extend over appended rows — what the last one cached.

    Found in the canonical plan, not by the optimizer, and cached per
    proof outcome (:meth:`Statement.variant`), never per text: a plan
    kept per text must stay right for every snapshot."""

    select: Select
    conjunct: Expr
    table: str
    column: str
    upper: bool
    limit: int


def windows_of(plan: PlanNode, schema_of: "Callable[[str], Schema]"
               ) -> tuple[Window, ...]:
    """The :class:`Window` conjuncts of ``plan``, ``schema_of`` giving a
    scanned table's schema; never one above a join."""
    windows = []
    pending = [plan]
    while pending:      # (``walk``'s nested generators cost 3x this)
        node = pending.pop()
        if not (isinstance(node, Select) and isinstance(node.child, Scan)):
            pending += node.children
            continue
        table = node.child.table
        for conjunct in split_conjuncts(node.predicate):
            bound = window_bound(conjunct, schema_of(table))
            if bound is not None:
                windows.append(Window(node, conjunct, table, *bound))
    return tuple(windows)


def proved_windows(windows: tuple[Window, ...],
                   snapshot: "CatalogSnapshot") -> int:
    """Bit ``i`` set when the min / max of ``snapshot`` prove
    ``windows[i]`` true of every row."""
    proved = 0
    for bit, (_, _, table, column, upper, limit) in enumerate(windows):
        span = snapshot.column_range(table, column)    # None: unknown
        if span is not None and (span[1] < limit if upper
                                 else span[0] > limit):
            proved |= 1 << bit
    return proved


def without_windows(plan: PlanNode, windows: tuple[Window, ...],
                    proved: int) -> PlanNode:
    """``plan`` without the ``windows`` whose bits ``proved`` sets; a
    ``Select`` left with no conjunct disappears.  Only the spine above
    a changed ``Select`` is rebuilt; every other subtree is shared."""
    dropped: dict[int, set[int]] = {}
    for bit, window in enumerate(windows):
        if proved >> bit & 1:
            dropped.setdefault(id(window.select), set()).add(
                id(window.conjunct))
    return _without(plan, dropped)


def _without(node: PlanNode, dropped: dict[int, set[int]]) -> PlanNode:
    gone = dropped.get(id(node))
    if gone is not None:
        kept = [conjunct for conjunct in split_conjuncts(node.predicate)
                if id(conjunct) not in gone]
        if not kept:
            return node.child
        pruned = Select(node.child, conjoin(kept))
    else:
        children = [_without(child, dropped) for child in node.children]
        if all(new is old for new, old in zip(children, node.children)):
            return node
        pruned = node.with_children(children)
    # dropping a filter changes no column of any operator above it
    pruned._schema_cache = node._schema_cache
    return pruned


class StatementTemplate(_BoundText):
    """The plan one text was bound to, as a recipe for every text that
    differs from it only in the values of its literals.

    ``bound`` is the plan as the binder left it, its literals tagged
    with the slots they came from (:func:`repro.expr.nodes.slot_value`);
    substituting another text's literal values gives the plan a fresh
    bind of that text would produce — same classes, same argument
    order — because everything else the binder reads from a literal's
    *value* is part of the key a text finds its template under
    (:func:`_template_key`).

    ``plan`` is ``bound`` validated and canonicalized, kept when no
    rewrite of the optimizer read a literal's value (its template
    check, ``OptimizeContext.template``): the rest of what the
    optimizer reads of a literal is part of the key too, so
    substituting another text's values into ``plan`` gives the plan the
    optimizer makes of that text's bound plan, in the same rewrites
    (``rewrites``); and ``validate_plan`` reads nothing but the names
    and types :meth:`valid_for` checks.  ``matches`` is the recycler's
    memo of how the literal-free subtrees of ``plan`` — shared by every
    plan substituted from it — matched the graph (``match_tree``'s
    ``memo``).  With ``plan`` ``None`` every text of the template is
    validated and optimized on its own.  Immutable, but for the entries
    of ``matches``."""

    __slots__ = ("bound", "plan", "rewrites", "matches")

    def __init__(self, bound: PlanNode, dependencies: Dependencies,
                 plan: PlanNode | None = None,
                 rewrites: Counter | None = None,
                 values: list | None = None) -> None:
        super().__init__(dependencies)
        self.bound = bound
        self.plan = plan
        self.rewrites = rewrites
        #: ``id`` of each maximal literal-free subtree of ``plan`` (the
        #: parts substituting ``values`` leaves in place) -> its entry
        self.matches = None if plan is None else dict.fromkeys(
            id(node) for node in _shared(plan, plan.substituted(values)))

    def bind(self, values: list) -> PlanNode:
        """The bound plan of the text whose literals, as the binder
        reads them, are ``values``."""
        return self.bound.substituted(values)

    def planned(self, values: list) -> PlanNode:
        """The validated, canonical plan of that text (``plan`` is set)."""
        return self.plan.substituted(values)


def _shared(plan: PlanNode, instance: PlanNode) -> list[PlanNode]:
    """The maximal subtrees of ``plan`` that ``instance`` — ``plan``
    substituted — shares."""
    if instance is plan:
        return [plan]
    return [shared for child, copy in zip(plan.children, instance.children)
            for shared in _shared(child, copy)]


def _coincidences(values: list) -> tuple[int, ...]:
    """The equality partition of ``values`` and the constants the
    binder makes up itself (``0``: unary minus, a missing ``ELSE``;
    ``1``: ``EXISTS``, key-less joins): per value, the rank of its
    class by first appearance.  Python equality, so ``1``, ``1.0`` and
    ``TRUE`` are one class — every comparison of expression keys the
    binder makes is at least that fine."""
    first: dict[object, int] = {0: 0, 1: 1}
    return tuple([first.setdefault(value, len(first)) for value in values])


def _template_key(shape: tuple, roles: tuple, values: list
                  ) -> tuple[tuple, list]:
    """The key of the template that may serve a text, and the text's
    literal values as the binder reads them.

    ``shape`` is the text with its literals stripped plus the literals'
    types (an ``int`` and a ``float`` bind to different plans);
    ``roles`` what the parser made of the literals of that shape: the
    slots it read as ``DATE '…'``, which reach the binder as day
    counts, and the slots it consumed into plan parameters that are
    not expressions (``LIMIT``, ``OFFSET``), which no substitution
    reaches — their values stay in the key.  The rest of the key is
    which literals coincide: the binder folds two equal aggregates into
    one and names a group key after an equal select item, so texts
    share a template only if every such comparison comes out the same
    — among the values as written, and (a date can be spelled two
    ways, and equals its day count in an ``IN`` list) as read.  Last is
    what the optimizer reads of a value: per float literal, whether
    ``normalize_literals`` types it INT64, and whether it types its
    negation so (the binder folds a minus into the literal)."""
    dates, pinned = roles
    resolved = values
    if dates:
        resolved = list(values)
        for slot in dates:
            resolved[slot] = date_to_days(values[slot])
    return (shape, _coincidences(values),
            tuple([values[slot] for slot in pinned]),
            _coincidences(resolved) if dates else None,
            tuple([(normalizes(value), normalizes(-value))
                   for value in values if type(value) is float])), resolved


def _lru_put(cache: OrderedDict, key: object, value: object) -> bool:
    """Make ``key`` the most recently used entry of ``cache``; whether
    the bound then evicted the least recently used one."""
    cache[key] = value
    cache.move_to_end(key)
    if len(cache) > STATEMENT_CACHE_ENTRIES:
        cache.popitem(last=False)
        return True
    return False


def _dependencies(bound: PlanNode,
                  snapshot: "CatalogSnapshot") -> Dependencies:
    # Taken from the plan as *bound*: a table the optimizer pruned
    # away must still exist for the text to bind.
    named = {(False, node.table) for node in bound.walk()
             if isinstance(node, Scan)}
    named |= {(True, node.function) for node in bound.walk()
              if isinstance(node, TableFunctionScan)}
    return tuple((is_function, name, _schema_of(snapshot, is_function, name))
                 for is_function, name in sorted(named))


def _schema_of(snapshot: "CatalogSnapshot", is_function: bool,
               name: str) -> "Schema":
    if is_function:
        return snapshot.function_entry(name).schema
    return snapshot.table_entry(name).table.schema


@dataclass
class FrontendStats:
    """Per-caller counters (one instance per frontend name)."""

    queries: int = 0
    errors: int = 0
    timeouts: int = 0
    cancelled: int = 0
    rows: int = 0
    num_reused: int = 0
    num_materialized: int = 0
    seconds: float = 0.0
    streams: int = 0
    stream_chunks: int = 0

    def as_dict(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ExecutionService:
    """The one prepare→snapshot-pin→optimize→recycle→record pipeline.

    Constructed by :class:`~repro.recycler.recycler.Recycler` (so the
    recycler's own ``execute`` keeps working standalone) and shared by
    the :class:`~repro.db.Database` facade.
    """

    def __init__(self, recycler: "Recycler") -> None:
        self.recycler = recycler
        self._stats: dict[str, FrontendStats] = {}
        self._stats_lock = threading.Lock()
        #: SQL text -> :class:`Statement`, least recently used first
        self._statements: OrderedDict[str, Statement] = OrderedDict()
        #: shape -> roles, then key -> :class:`StatementTemplate` (see
        #: :func:`_template_key`), each least recently used first
        self._literal_roles: OrderedDict[tuple, tuple] = OrderedDict()
        self._templates: OrderedDict[tuple, StatementTemplate] = \
            OrderedDict()
        self._statement_stats = {"hits": 0, "misses": 0,
                                 "invalidated": 0, "evicted": 0,
                                 "template_hits": 0, "template_misses": 0,
                                 "template_invalidated": 0,
                                 "template_plans": 0}
        self._statement_lock = threading.Lock()
        #: attached :class:`~repro.server.ReproServer` instances —
        #: ``summary()`` folds their admission/connection counters in.
        self._servers: list[object] = []

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, text: str,
             snapshot: "CatalogSnapshot | None" = None) -> PlanNode:
        """Parse + bind + validate SQL text into a logical plan, resolved
        against ``snapshot`` (one is pinned here otherwise) so a
        concurrent DDL cannot slide under the binder mid-statement."""
        snapshot = snapshot or self.recycler.catalog.snapshot()
        plan = sql_to_plan(text, snapshot)
        validate_plan(plan, snapshot)
        return plan

    def statement(self, text: str, snapshot: "CatalogSnapshot",
                  warm_only: bool = False) -> Statement | None:
        """The cached :class:`Statement` for ``text`` if it is valid for
        ``snapshot``; otherwise plan the text (:meth:`_plan`: bind it,
        validate the plan and run the recycler's canonicalizing
        optimizer over it, or take all that from its statement
        template) and cache that — or, ``warm_only``, return ``None``
        with the cache and its counters as they were.

        A text that fails to parse, bind or validate raises from here
        and leaves nothing behind.  A query pinned to an older snapshot
        than the cached statement's simply finds it invalid and
        re-plans against its own."""
        stats = self._statement_stats
        with self._statement_lock:
            cached = self._statements.get(text)
            if cached is not None and cached.valid_for(snapshot):
                self._statements.move_to_end(text)
                # a warm-only lookup is a hit once the statement is
                # answered (``execute`` counts it then): one that falls
                # through to a full ``execute`` is counted there, once
                if not warm_only:
                    stats["hits"] += 1
                return cached
            if warm_only:
                return None
            if cached is not None:
                del self._statements[text]
                stats["invalidated"] += 1
            stats["misses"] += 1
        fresh = self._plan(text, snapshot)
        with self._statement_lock:
            # (a concurrent miss on the same text may have put it back)
            if _lru_put(self._statements, text, fresh):
                stats["evicted"] += 1
        return fresh

    def _plan(self, text: str, snapshot: "CatalogSnapshot") -> Statement:
        """``text`` bound against ``snapshot``, validated and
        canonicalized.

        One scan strips the literals from the text; if a text of that
        shape was planned before, a :class:`StatementTemplate` valid for
        ``snapshot`` may be waiting under :func:`_template_key`.  When it
        holds a plan, substituting this text's values into that is the
        whole of planning; otherwise substituting them into its bound
        plan is the bind.  Anything else takes lex → parse → bind and
        leaves the plan behind as the template — unless scan and lexer
        read the text differently."""
        stats = self._statement_stats
        stripped, values = scan_literals(text)
        shape = (stripped, tuple([type(value) for value in values]))
        template = None
        with self._statement_lock:
            roles = self._literal_roles.get(shape)
            if roles is not None:
                self._literal_roles.move_to_end(shape)
                try:
                    key, resolved = _template_key(shape, roles, values)
                except ValueError:      # a date: the binder reports it
                    key = None
                template = self._templates.get(key)
            if template is not None:
                if template.valid_for(snapshot):
                    self._templates.move_to_end(key)
                else:
                    del self._templates[key]
                    stats["template_invalidated"] += 1
                    template = None
            if template is None:
                stats["template_misses"] += 1
            else:
                stats["template_hits"] += 1
                if template.plan is not None:
                    stats["template_plans"] += 1
        if template is not None:
            if template.plan is not None:
                self.recycler.count_rewrites(template.rewrites)
                return Statement(template.planned(resolved),
                                 template.dependencies, template)
            bound = template.bind(resolved)
            validate_plan(bound, snapshot)
            return Statement(self.recycler.optimize(bound, snapshot),
                             template.dependencies)
        bound, literals = sql_to_template(text, snapshot)
        dependencies = _dependencies(bound, snapshot)
        validate_plan(bound, snapshot)
        key = None
        if [(type(v), v) for v in literals.values] == \
                [(type(v), v) for v in values]:     # (``1 == 1.0``)
            roles = (literals.dates, literals.pinned)
            try:
                key, resolved = _template_key(shape, roles, values)
            except ValueError:  # a date in a subtree the binder dropped
                pass
        if key is None:
            return Statement(self.recycler.optimize(bound, snapshot),
                             dependencies)
        ctx = OptimizeContext(snapshot, template=True)
        plan = self.recycler.optimize(bound, snapshot, ctx)
        if ctx.value_dependent:
            template = StatementTemplate(bound, dependencies)
        else:
            template = StatementTemplate(bound, dependencies, plan,
                                         ctx.counts, resolved)
        with self._statement_lock:
            _lru_put(self._literal_roles, shape, roles)
            _lru_put(self._templates, key, template)
        return Statement(plan, dependencies,
                         None if template.plan is None else template)

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------
    def execute(self, query: str | PlanNode, *, frontend: str = "service",
                label: str = "",
                timeout: float | None = None,
                deadline: float | None = None,
                cancel_token: CancellationToken | None = None,
                producer_token: object | None = None,
                block_on_inflight: bool = False,
                snapshot: "CatalogSnapshot | None" = None,
                remote: object | None = None,
                validate: bool = True,
                warm_only: bool = False) -> QueryResult | None:
        """Run one query (SQL text or a prebuilt plan) end to end.

        ``frontend`` names the caller for the per-caller statistics
        (``"database"``, ``"session"``, ``"dbapi"``, ``"server"``, ...).

        ``timeout`` (seconds from now) / ``deadline`` (absolute
        :func:`time.monotonic` timestamp) bound the execution — the
        earlier wins; past either the query aborts with
        :class:`~repro.errors.QueryTimeout` within one batch boundary.
        A caller that needs the token for cross-thread cancellation
        passes ``cancel_token`` instead: a
        :class:`~repro.session.Session`, through which the DB-API and
        both servers issue their queries, builds one per query.

        SQL text goes through the statement cache (:meth:`statement`):
        a repeat whose tables and functions still have the schemas it
        was bound against skips lex/parse/bind/validate/optimize and
        hands the recycler the same plan object as last time.

        ``snapshot`` pins the catalog view end to end; one is pinned
        here otherwise.  A prebuilt plan arriving *without* a snapshot
        is re-validated against the pinned one (``validate=False``
        restores the raw ``Recycler.execute`` contract for callers that
        manage validation themselves).

        ``remote`` fans cold queries out to a
        :class:`~repro.engine.shard.pool.ShardRuntime`.

        ``warm_only`` answers the query only if that takes no more than
        a statement-cache hit and a full-plan hit of the recycler
        (``Recycler.prepare(warm_only=True)``) — O(1) in the data, no
        waiting, safe on a server's event loop — through the same
        lines as any other query.  Otherwise the call returns ``None``
        and nothing records that it was made: no counter of the
        statement cache, the recycler or the frontend has moved, so
        calling again without the flag is the query's one execution.
        """
        if cancel_token is None:
            cancel_token = CancellationToken.from_limits(
                timeout=timeout, deadline=deadline)
        pinned_here = snapshot is None
        if snapshot is None:
            snapshot = self.recycler.catalog.snapshot()
        if isinstance(query, str):
            query = self.statement(query, snapshot, warm_only)
            if query is None:
                return None
        elif validate and pinned_here:
            validate_plan(query, snapshot)

        started = time.perf_counter()
        try:
            result = self._pipeline(
                query, label=label, producer_token=producer_token,
                block_on_inflight=block_on_inflight,
                cancel_token=cancel_token, snapshot=snapshot,
                remote=remote, warm_only=warm_only)
        except QueryTimeout:
            self._account_error(frontend, "timeouts")
            raise
        except QueryCancelled:
            self._account_error(frontend, "cancelled")
            raise
        except Exception:
            self._account_error(frontend, "errors")
            raise
        if result is None:      # a ``warm_only`` prepare declined
            return None
        if warm_only:
            with self._statement_lock:
                self._statement_stats["hits"] += 1
        self._account(frontend, result, time.perf_counter() - started)
        return result

    def _pipeline(self, query: Statement | PlanNode, *, label: str,
                  producer_token: object | None,
                  block_on_inflight: bool,
                  cancel_token: CancellationToken | None,
                  snapshot: "CatalogSnapshot | None",
                  remote: object | None,
                  warm_only: bool) -> QueryResult | None:
        """prepare → remote-or-local execute → finalize, with the
        abandon path unwinding on any failure.  This is the only copy of
        the pipeline; ``Recycler.execute`` and every frontend delegate
        here.  ``None`` when a ``warm_only`` prepare declined."""
        recycler = self.recycler
        prepared = recycler.prepare(query, producer_token=producer_token,
                                    block_on_inflight=block_on_inflight,
                                    cancel_token=cancel_token,
                                    snapshot=snapshot,
                                    warm_only=warm_only)
        if prepared is None:
            return None
        try:
            result = None
            if remote is not None and remote.eligible(prepared):
                # The shard-parent path: cold plans execute in a worker
                # process; the recycler (matching, admission) stays
                # authoritative in this process.
                try:
                    outcome = remote.execute(prepared, cancel_token)
                except ShardUnavailable:
                    result = None  # closed mid-flight: run locally
                else:
                    outcome.stats.num_stored = \
                        recycler._admit_remote_stores(prepared, outcome)
                    result = QueryResult(table=outcome.table,
                                         stats=outcome.stats)
            if result is None:
                result = execute_plan(prepared.executed_plan,
                                      prepared.snapshot or
                                      recycler.catalog,
                                      stores=prepared.stores,
                                      vector_size=VECTOR_SIZE,
                                      cost_model=recycler.cost_model,
                                      query_id=prepared.query_id,
                                      token=cancel_token)
        except BaseException:
            recycler.abandon(prepared)
            raise
        result.record = recycler.finalize(prepared, result.stats,
                                          label=label)
        return result

    # ------------------------------------------------------------------
    # per-frontend accounting
    # ------------------------------------------------------------------
    def _frontend(self, name: str) -> FrontendStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats.setdefault(name, FrontendStats())
        return stats

    def _account(self, frontend: str, result: QueryResult,
                 seconds: float) -> None:
        record = result.record
        with self._stats_lock:
            stats = self._frontend(frontend)
            stats.queries += 1
            stats.seconds += seconds
            stats.rows += result.table.num_rows
            if record is not None:
                stats.num_reused += record.num_reused
                stats.num_materialized += record.num_materialized

    def _account_error(self, frontend: str, kind: str) -> None:
        with self._stats_lock:
            stats = self._frontend(frontend)
            setattr(stats, kind, getattr(stats, kind) + 1)

    def account_stream(self, frontend: str, *, chunks: int) -> None:
        """Record one completed streamed reply (TCP / HTTP
        chunked responses) against the frontend's counters."""
        with self._stats_lock:
            stats = self._frontend(frontend)
            stats.streams += 1
            stats.stream_chunks += chunks

    # ------------------------------------------------------------------
    # server attachment & observability
    # ------------------------------------------------------------------
    def attach_server(self, server: object) -> None:
        """Register a running :class:`~repro.server.ReproServer` so its
        admission counters surface in :meth:`summary`."""
        with self._stats_lock:
            if server not in self._servers:
                self._servers.append(server)

    def detach_server(self, server: object) -> None:
        with self._stats_lock:
            if server in self._servers:
                self._servers.remove(server)

    def summary(self) -> dict[str, object]:
        """Per-frontend query counts, the statement cache's counters
        (``entries`` now; ``hits`` / ``misses`` lookups by text;
        ``invalidated`` entries dropped because a dependency's schema
        changed or went away; ``evicted`` by the LRU bound;
        ``templates`` now; of the misses, ``template_hits`` bound by
        substituting literals into a template and ``template_misses``
        by lex / parse / bind; of the template hits, ``template_plans``
        planned by substituting them into the template's validated,
        canonical plan, with no validation or optimizer run;
        ``template_invalidated`` like ``invalidated``) plus, summed
        over every
        attached server, admission rejections, live connections and
        the queries answered ``inline`` (on a server's event loop, not
        its worker pool) — the ``"service"`` block of
        ``Database.summary()``."""
        with self._statement_lock:
            statement_cache = {"entries": len(self._statements),
                               "templates": len(self._templates),
                               **self._statement_stats}
        with self._stats_lock:
            frontends = {name: stats.as_dict()
                         for name, stats in sorted(self._stats.items())}
            servers = list(self._servers)
        rejected = 0
        connections = 0
        inline = 0
        for server in servers:
            stats = server.stats()
            rejected += stats.get("rejected", 0)
            connections += stats.get("active_connections", 0)
            inline += stats.get("inline", 0)
        return {
            "frontends": frontends,
            "queries": sum(s["queries"] for s in frontends.values()),
            "statement_cache": statement_cache,
            "servers": len(servers),
            "admission_rejected": rejected,
            "active_connections": connections,
            "inline": inline,
        }
