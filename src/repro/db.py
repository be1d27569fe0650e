"""The public database facade.

Ties the catalog, SQL front end, pipelined engine and recycler together::

    from repro import Database, RecyclerConfig

    db = Database(RecyclerConfig(mode="spec"))
    db.register_table("t", table)
    result = db.sql("SELECT g, sum(v) AS s FROM t GROUP BY g")
    print(result.table.to_rows())
    print(db.summary())

Concurrency: ``db.sql`` may be called from any number of OS threads —
the recycler coordinates them internally.  For per-connection counters
and in-flight result sharing (a query blocking on, then reusing, a
result a concurrent query is materializing) open explicit sessions::

    with db.pool(workers=4) as pool:
        results = pool.run(queries)       # four truly concurrent sessions

Queries are cooperatively cancellable: ``db.sql(..., timeout=s)`` arms
a per-query deadline, sessions add ``execute(..., deadline=)`` and a
cross-thread ``Session.cancel()``, and
``SessionPool.close(cancel_pending=True)`` aborts running queries
mid-execution — see ``docs/ARCHITECTURE.md`` for the cancellation flow.

Schema changes are **online** and snapshot-isolated: every query pins an
immutable catalog snapshot at prepare time and resolves tables against
it end to end, so ``register_table`` / ``drop_table`` / ``append_rows``
may run while queries are in flight — a running query keeps reading the
table incarnation it started with (never a mix of old and new rows),
cached dependents are invalidated, in-flight producers of now-stale
results are aborted in the registry (waking stalled consumers), and
version-tagged cache admission rejects any result computed from a
superseded table, exactly the paper's committed-update eviction made
safe under concurrency.  See ``docs/ARCHITECTURE.md`` ("Catalog
versioning and online DDL").  An append evicts less: a cached result
that can be extended over the appended rows stays, and the next query
reusing it extends it ("Append-aware recycling").
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from .columnar.catalog import (BinningSpec, Catalog, CatalogSnapshot,
                               TableFunction)
from .columnar.table import Schema, Table
from .engine.cost import DEFAULT_COST_MODEL, CostModel
from .engine.executor import QueryResult
from .plan.logical import PlanNode, render_plan
from .recycler.config import RecyclerConfig
from .recycler.maintenance import MaintenanceManager
from .recycler.recycler import Recycler
from .session import Session, SessionPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine.shard import ShardRuntime


class Database:
    """An in-memory analytical database with a recycling query engine."""

    def __init__(self, config: RecyclerConfig | None = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 catalog: Catalog | None = None) -> None:
        #: ``catalog`` lets a prebuilt catalog (e.g. a generated workload
        #: substrate) be served directly.
        self.catalog = catalog if catalog is not None else Catalog()
        self.config = config or RecyclerConfig()
        self.recycler = Recycler(self.catalog, self.config,
                                 cost_model=cost_model)
        #: the one canonical execution pipeline
        #: (:class:`~repro.exec_service.ExecutionService`) — shared by
        #: this facade, sessions, the DB-API, and the server, so every
        #: frontend's queries meet in one recycler *and* one
        #: per-frontend statistics stream.
        self.service = self.recycler.service
        #: background idle-truncation driver; its thread only starts
        #: when ``config.maintenance_interval_seconds`` is set, but
        #: ``maintain()`` runs a cycle on demand regardless.
        self.maintenance = MaintenanceManager(self.recycler)
        self.maintenance.start()
        self._session_counter = 0
        self._session_lock = threading.Lock()
        #: every shard runtime created via :meth:`shard_runtime` /
        #: ``pool(mode="processes")`` — closed (workers stopped, shared
        #: memory unlinked) by :meth:`close`.
        self._shard_runtimes: list = []
        self._closed = False

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Table) -> None:
        """Register (or replace) a base table — safe while queries run.

        Ordering matters and is the fix for the classic stale-publish
        race: the catalog **swaps the table and bumps its version
        first** (atomically, under the catalog write lock), *then* the
        recycler sweep evicts cached dependents and aborts in-flight
        producers.  A producer finishing against the old table after the
        sweep is rejected by version-tagged cache admission — under the
        old invalidate-then-swap ordering it would have published a
        permanently stale entry.
        """
        self.catalog.register_table(name, table)
        # Unconditional (and idempotent): a has-table pre-check would be
        # check-then-act — two sessions concurrently registering a fresh
        # table could both skip the sweep and strand an entry cached
        # between their version bumps.
        self.recycler.invalidate_table(name)

    def drop_table(self, name: str) -> None:
        """Drop a base table — safe while queries run.

        Queries that pinned a snapshot before the drop complete against
        the dropped incarnation; new queries fail to bind.  Cached
        dependents are evicted and can never come back (versions survive
        drops, so a late producer is version-rejected)."""
        self.catalog.drop_table(name)
        self.recycler.invalidate_table(name)

    def append_rows(self, name: str, rows) -> None:
        """Append rows (a schema-compatible :class:`~repro.columnar.
        table.Table` or an iterable of row tuples) to a base table —
        the committed-update fast path of the paper's Fig. 6 model:
        one atomic swap-and-bump, then the invalidation sweep, which
        keeps every cached dependent that can be extended over the new
        rows (the next query that reuses one pays for the extension)
        and evicts the rest.  Appending no rows changes nothing."""
        before = self.catalog.table_entry(name)
        if self.catalog.append_rows(name, rows) is not before:
            self.recycler.invalidate_table(name)

    def alter_table_add_column(self, name: str, column: str, dtype,
                               default: object | None = None) -> None:
        """Add a column (filled with ``default``, or the type's zero
        value) to a base table — safe while queries run.

        Same swap-then-invalidate ordering as :meth:`register_table`:
        the version bump lands first, so a pre-evolution producer
        finishing late is version-rejected, and the sweep evicts every
        cached dependent.  Plans bound before the DDL keep working —
        they cannot reference the new column — but their next execution
        recomputes rather than serving a pre-evolution cache entry."""
        self.catalog.alter_table_add_column(name, column, dtype, default)
        self.recycler.invalidate_table(name)

    def rename_column(self, name: str, old_name: str,
                      new_name: str) -> None:
        """Rename a column of a base table — safe while queries run.

        Bumps the table's version *and* incarnation: cached dependents
        are evicted, and plans bound against the old column name fail
        validation on their next use and must be re-bound (``db.sql``
        re-binds from text automatically; prebuilt plans are rebuilt by
        their owner)."""
        self.catalog.rename_column(name, old_name, new_name)
        self.recycler.invalidate_table(name)

    def register_function(self, name: str, function: TableFunction,
                          schema: Schema,
                          invocation_cost: float = 0.0) -> None:
        """Register (or replace) a table function; replacing invalidates
        every cached result derived from it (same contract as
        :meth:`register_table` — a re-registered function may compute
        something different)."""
        self.catalog.register_function(name, function, schema,
                                       invocation_cost)
        # Unconditional for the same reason as register_table.
        self.recycler.invalidate_function(name)

    def register_binning(self, table: str, spec: BinningSpec) -> None:
        """Declare how a column may be binned (enables the proactive
        cube-caching-with-binning strategy for that column)."""
        self.catalog.register_binning(table, spec)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def plan(self, sql: str,
             snapshot: CatalogSnapshot | None = None) -> PlanNode:
        """Parse + bind + validate SQL into the *as-bound* logical plan —
        before the recycler's canonicalizing optimizer
        (:meth:`explain` shows the plan after it).

        Binding and validation resolve against ``snapshot`` (one is
        pinned here otherwise), so a concurrent DDL cannot slide under
        the binder's feet mid-statement."""
        return self.service.plan(sql, snapshot)

    def sql(self, text: str, label: str = "",
            timeout: float | None = None) -> QueryResult:
        """Execute SQL text through the recycler — a thin caller of the
        shared :class:`~repro.exec_service.ExecutionService`.

        One catalog snapshot is pinned up front and covers binding,
        validation, rewriting, and execution — the whole statement sees
        a single point-in-time schema.

        ``timeout`` (seconds) sets a query deadline: execution is
        checked per batch and aborts with
        :class:`~repro.errors.QueryTimeout` once the deadline passes,
        leaving no cache entry or in-flight registration behind.
        """
        return self.service.execute(text, frontend="database",
                                    label=label, timeout=timeout)

    def execute(self, plan: PlanNode, label: str = "",
                timeout: float | None = None) -> QueryResult:
        """Execute a prebuilt logical plan through the recycler
        (``timeout`` as in :meth:`sql`).  The plan is re-validated
        against — and executed under — a snapshot pinned now."""
        return self.service.execute(plan, frontend="database",
                                    label=label, timeout=timeout)

    def explain(self, sql: str) -> str:
        """The canonical plan — the one the recycler fingerprints and
        matches — as a printable tree.  Goes through the statement
        cache, so explaining a statement also warms it."""
        return render_plan(self.service.statement(
            sql, self.catalog.snapshot()).plan)

    # ------------------------------------------------------------------
    # sessions & concurrency
    # ------------------------------------------------------------------
    def connect(self, executor: object | None = None,
                frontend: str = "session") -> Session:
        """Open a new session (one logical connection).

        Sessions share this database's recycler: results one session
        materializes are reused by the others, and a session blocks on —
        then reuses — results a concurrent session is producing.

        ``executor`` optionally attaches a
        :class:`~repro.engine.shard.pool.ShardRuntime` (see
        :meth:`shard_runtime`): the session's cold queries then execute
        in worker processes; warm queries and queries the runtime
        cannot serve run in-process as usual.

        ``frontend`` names the caller in
        ``summary()["service"]["frontends"]`` (the DB-API and the
        servers open one session per connection under their own name).
        """
        with self._session_lock:
            self._session_counter += 1
            return Session(self, self._session_counter,
                           executor=executor, frontend=frontend)

    def pool(self, workers: int, mode: str = "threads") -> SessionPool:
        """A pool of ``workers`` concurrent sessions.

        ``mode="threads"`` (default) runs every query in-process on the
        pool's worker threads — reuse-heavy workloads spend most time
        in numpy kernels that release the GIL, but pure-Python operator
        overhead still serializes on the GIL.

        ``mode="processes"`` additionally spins up ``workers`` shard
        worker processes sharing this database's registered tables
        through shared memory; each session's *cold* queries execute on
        a worker process (results return pickle-free through a
        shared-memory ring) while the recycler — matching, reuse, cache
        admission — stays in this process.  Closing the pool shuts the
        worker processes down and unlinks every shared-memory segment.
        See ``docs/ARCHITECTURE.md`` ("Execution modes").
        """
        if mode == "threads":
            return SessionPool(self, workers)
        if mode == "processes":
            return SessionPool(self, workers,
                               shard_runtime=self.shard_runtime(workers))
        raise ValueError(f"unknown pool mode: {mode!r} "
                         "(expected 'threads' or 'processes')")

    def shard_runtime(self, workers: int) -> "ShardRuntime":
        """Create a process-shard runtime over the *current* registered
        tables (DDL after this point sends affected queries back to
        in-process execution).  The runtime is tracked so
        :meth:`close` releases its worker processes and shared-memory
        segments even if the caller forgets."""
        from .engine.shard import ShardRuntime
        runtime = ShardRuntime(self, workers)
        with self._session_lock:
            self._shard_runtimes.append(runtime)
        return runtime

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def flush_cache(self) -> int:
        return self.recycler.flush_cache()

    def invalidate_table(self, name: str) -> int:
        return self.recycler.invalidate_table(name)

    def invalidate_function(self, name: str) -> int:
        return self.recycler.invalidate_function(name)

    def maintain(self) -> dict[str, int]:
        """Run one maintenance cycle now — one truncation of the
        subtrees idle for more than ``truncate_min_idle_events`` query
        events, version-dead ones included — regardless of the
        background cadence.  Returns the nodes it removed."""
        return self.maintenance.run_once()

    def summary(self) -> dict:
        """Aggregate counters: the recycler view (queries, graph, cache,
        costs), background-maintenance counters under ``"maintenance"``
        (cycles, truncate runs, nodes truncated, incremental stat merges),
        catalog/DDL counters under ``"catalog"`` (tables, functions, DDL
        clock, invalidation sweeps, entries evicted by DDL, entries
        extended over appended rows, in-flight producers aborted,
        version-rejected admissions), plan
        canonicalization under ``"optimizer"`` (enabled flag,
        per-strategy rewrite counts, cost-gated reuse skips, the
        recycler node match rate, and ``root_hits`` — prepares answered
        by the root-hit fast path), and the execution service under
        ``"service"`` (per-frontend counters, attached servers, and the
        ``statement_cache`` block: entries, hits, misses, invalidated,
        evicted)."""
        summary = self.recycler.summary()
        maintenance = self.maintenance.stats.as_dict()
        # the catalog owns this one: appends maintain their statistics
        # incrementally, and ops wants to see that machinery engage
        maintenance["stats_incremental_merges"] = \
            self.catalog.stats_counters["incremental_merges"]
        summary["maintenance"] = maintenance
        ddl = self.recycler.ddl_stats
        summary["catalog"] = {
            "tables": len(self.catalog.table_names()),
            "functions": len(self.catalog.function_names()),
            "ddl_clock": self.catalog.ddl_clock,
            "invalidations": ddl["invalidations"],
            "entries_evicted": ddl["entries_evicted"],
            "entries_extended": self.recycler.cache.counters.extended,
            "inflight_aborted": ddl["inflight_aborted"],
            "version_rejected":
                self.recycler.cache.counters.version_rejected,
        }
        summary["optimizer"] = self.recycler.optimizer_summary()
        summary["service"] = self.service.summary()
        return summary

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop background maintenance and release every shard runtime
        this database created — worker processes are stopped and all
        shared-memory segments provably unlinked (idempotent).  Open
        sessions stay usable: a process-mode session whose runtime is
        gone falls back to in-process execution."""
        if self._closed:
            return
        self._closed = True
        self.maintenance.stop()
        with self._session_lock:
            runtimes = list(self._shard_runtimes)
            self._shard_runtimes.clear()
        for runtime in runtimes:
            runtime.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
