"""Cost-aware background maintenance for a recycler (paper Section II).

The paper notes the recycler graph "has to be truncated periodically,
e.g. by periodically removing subtrees that have not been accessed for
some time".  The :class:`MaintenanceManager` is that caller — a daemon
thread owned by :class:`~repro.db.Database` that wakes on a configurable
cadence — whose cycles are **bounded by cost**:

* **Budget** — each cycle spends at most
  ``maintenance_budget_bytes`` of reclaimed graph bookkeeping and
  ``maintenance_budget_seconds`` of wall clock; work left at the cut
  carries over to the next cycle
  (``stats.budget_exhausted_cycles`` counts the cuts).
* **Victim ordering** — budgeted truncation drains idle subtrees
  *lowest benefit-per-byte first* (Eq. 1 via the shared
  :class:`~repro.recycler.benefit.BenefitModel`) rather than by idle
  age alone, so whatever the budget buys is the least valuable
  bookkeeping.
* **Version-dead GC** — every cycle first sweeps graph subtrees whose
  incarnation stamps a ``drop_table``/re-register left permanently
  behind the live catalog
  (:meth:`~repro.recycler.recycler.Recycler.collect_version_dead`),
  with in-flight pinning; dead nodes are unmatchable by any new
  snapshot, so they are collected regardless of benefit or idle age
  and do not count against the byte budget.

Two triggers decide when the budget is spent: *size* (graph outgrew
``maintenance_graph_node_limit``) and *idle*
(``maintenance_idle_seconds`` since ``Recycler.last_activity``, which
also refreshes cached benefits against the aged clock).

``Database.close()`` (or the manager's :meth:`stop`) shuts the thread
down cleanly; :meth:`run_once` applies one cycle synchronously for
deterministic tests and for deployments that prefer an external cron.

Shutdown is cooperative all the way down: a cycle in progress folds the
manager's stop flag (and its time budget) into the ``stop`` hooks of
:meth:`Recycler.truncate_budgeted` / :meth:`Recycler.collect_version_dead`
/ :meth:`RecyclerCache.refresh_all`, which consult it at their phase
boundaries — so ``stop()`` returns promptly instead of waiting out a
large sweep, mirroring the query-side
:class:`~repro.engine.cancellation.CancellationToken`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable

from .recycler import Recycler


def _never_stop() -> bool:
    return False


@dataclass
class MaintenanceStats:
    """Counters for observability and tests (surfaced under the
    ``"maintenance"`` key of ``Database.summary()``)."""

    cycles: int = 0
    size_triggers: int = 0
    idle_triggers: int = 0
    #: truncations that actually removed nodes (a trigger may fire and
    #: find nothing idle enough; that is not a run).
    truncate_runs: int = 0
    nodes_truncated: int = 0
    #: summed result-size annotations of truncated nodes — the
    #: bookkeeping volume maintenance reclaimed from the graph.
    bytes_reclaimed: int = 0
    #: version-dead subtrees swept by GC (drop/re-register made their
    #: incarnation stamps permanently unmatchable).
    gc_nodes_collected: int = 0
    #: cycles cut short by the byte or time budget with eligible work
    #: remaining (it carries over to the next cycle).
    budget_exhausted_cycles: int = 0
    benefits_refreshed: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class MaintenanceManager:
    """Cost-aware truncate/GC/refresh driver for one recycler."""

    def __init__(self, recycler: Recycler) -> None:
        self.recycler = recycler
        self.config = recycler.config
        self.stats = MaintenanceStats()
        self._wakeup = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        """Start the background thread (no-op when already running or
        when no interval is configured)."""
        if self.config.maintenance_interval_seconds is None:
            return
        with self._lock:
            if self.running:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-maintenance", daemon=True)
            self._thread.start()

    def stop(self, timeout: float | None = 5.0) -> None:
        """Signal the thread and join it (idempotent)."""
        with self._lock:
            thread = self._thread
            self._thread = None
        self._stop.set()
        self._wakeup.set()
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def wake(self) -> None:
        """Nudge the thread to run a cycle now (tests, pressure hooks)."""
        self._wakeup.set()

    def _loop(self) -> None:
        interval = self.config.maintenance_interval_seconds
        while not self._stop.is_set():
            self._wakeup.wait(interval)
            self._wakeup.clear()
            if self._stop.is_set():
                return
            self.run_once(stop=self._stop.is_set)

    # ------------------------------------------------------------------
    # one cycle
    # ------------------------------------------------------------------
    def run_once(self, now: float | None = None,
                 stop: Callable[[], bool] | None = None
                 ) -> dict[str, int]:
        """Spend one budgeted maintenance cycle; returns what fired.

        The cycle runs, in order: (1) version-dead GC — dead subtrees
        are pure waste, so they go first and skip the byte budget;
        (2) the *size* trigger — budgeted, benefit-per-byte-ordered
        truncation when the graph outgrew its node limit; (3) the
        *idle* trigger — ``maintenance_idle_seconds`` without a query —
        budgeted truncation plus a cached-benefit refresh.  Every phase
        consults the combined stop hook (external ``stop`` + the cycle's
        time budget), and a byte budget left over from the size trigger is
        what the idle truncation may still spend.

        Safe from any thread (truncation takes every rewrite stripe);
        callable directly even when the background thread is disabled.
        ``stop`` is the cooperative-shutdown hook: the background loop
        passes its stop flag so a cycle in progress abandons promptly
        when the thread is told to exit.  Synchronous callers
        (``Database.maintain()``) omit it — explicit maintenance keeps
        working after ``Database.close()``.  ``now`` overrides the
        trigger clock for deterministic tests; the *time budget* always
        runs on the real clock.
        """
        now = time.monotonic() if now is None else now
        recycler = self.recycler
        config = self.config
        stopping = stop if stop is not None else _never_stop
        deadline = None if config.maintenance_budget_seconds is None \
            else time.monotonic() + config.maintenance_budget_seconds

        def over_time() -> bool:
            return deadline is not None and time.monotonic() >= deadline

        def cut_short() -> bool:
            return stopping() or over_time()

        truncate_stats: dict[str, int] = {}
        removed = 0
        truncate_runs = 0
        refreshed = 0
        gc_removed = 0
        size_fired = False
        idle_fired = False
        exhausted = False
        bytes_left = config.maintenance_budget_bytes

        def budgeted_truncate() -> None:
            nonlocal removed, truncate_runs, exhausted, bytes_left
            before = truncate_stats.get("bytes_reclaimed", 0)
            run_removed, run_exhausted = recycler.truncate_budgeted(
                budget_bytes=bytes_left, stop=cut_short,
                stats=truncate_stats)
            removed += run_removed
            truncate_runs += int(run_removed > 0)
            exhausted = exhausted or run_exhausted
            spent = truncate_stats.get("bytes_reclaimed", 0) - before
            if bytes_left is not None:
                bytes_left = max(bytes_left - spent, 0)

        # Phase 1 — version-dead GC.  Unconditional and un-byte-budgeted:
        # a dead subtree can never be matched again, so collecting it is
        # pure win whatever its benefit annotations claim.
        if not stopping():
            gc_removed = recycler.collect_version_dead(
                stop=cut_short, stats=truncate_stats)

        # Phase 2 — size pressure: the graph is too big *now*.
        limit = config.maintenance_graph_node_limit
        if limit is not None and len(recycler.graph.nodes) > limit \
                and not cut_short():
            size_fired = True
            budgeted_truncate()

        # Phase 3 — idle window: no query for maintenance_idle_seconds.
        idle_after = config.maintenance_idle_seconds
        if idle_after is not None and \
                now - recycler.last_activity >= idle_after \
                and not cut_short():
            idle_fired = True
            budgeted_truncate()
            if not cut_short():
                refreshed = recycler.refresh_cached_benefits(
                    stop=cut_short)

        with self._lock:
            # the background thread and Database.maintain() callers may
            # cycle concurrently; keep the counters' read-modify-writes
            # atomic
            self.stats.cycles += 1
            self.stats.size_triggers += int(size_fired)
            self.stats.idle_triggers += int(idle_fired)
            self.stats.truncate_runs += truncate_runs
            self.stats.nodes_truncated += removed
            self.stats.bytes_reclaimed += \
                truncate_stats.get("bytes_reclaimed", 0)
            self.stats.gc_nodes_collected += gc_removed
            self.stats.budget_exhausted_cycles += int(exhausted)
            self.stats.benefits_refreshed += refreshed
        return {
            "size_trigger": int(size_fired),
            "idle_trigger": int(idle_fired),
            "nodes_truncated": removed,
            "gc_nodes_collected": gc_removed,
            "budget_exhausted": int(exhausted),
            "benefits_refreshed": refreshed}
