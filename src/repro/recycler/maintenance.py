"""Background maintenance for a recycler (paper Section II).

The paper notes the recycler graph "has to be truncated periodically,
e.g. by periodically removing subtrees that have not been accessed for
some time".  The :class:`MaintenanceManager` is that caller — a daemon
thread owned by :class:`~repro.db.Database` that wakes on a configurable
cadence — and each cycle is one sweep:

1. **Version-dead GC** — graph subtrees whose incarnation stamps a
   ``drop_table``/re-register left permanently behind the live catalog
   are unmatchable by any new snapshot, so they are collected whatever
   their idle age
   (:meth:`~repro.recycler.recycler.Recycler.collect_version_dead`,
   with in-flight pinning).  A cycle with no DDL since a sweep that
   left nothing dead behind costs two integer reads.
2. **Truncation** — when the *size* trigger (the graph outgrew
   ``maintenance_graph_node_limit``) or the *idle* trigger
   (``maintenance_idle_seconds`` since ``Recycler.last_activity``)
   fires, one :meth:`~repro.recycler.recycler.Recycler.truncate_idle`
   call removes every subtree idle beyond ``truncate_min_idle_events``
   query events.
3. **Benefit refresh** — when the idle trigger fired, cached benefits
   are recomputed against the aged clock.

A cycle is a pure function of the graph and its ``now``.
``Database.close()`` (or the manager's :meth:`stop`) shuts the thread
down cleanly; :meth:`run_once` applies one cycle synchronously for
deterministic tests and for deployments that prefer an external cron.

Shutdown is cooperative all the way down: a cycle in progress passes
the manager's stop flag to the ``stop`` hooks of
:meth:`Recycler.truncate_idle` / :meth:`Recycler.collect_version_dead`
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
    #: version-dead subtrees swept by GC (drop/re-register made their
    #: incarnation stamps permanently unmatchable).
    gc_nodes_collected: int = 0
    benefits_refreshed: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class MaintenanceManager:
    """GC/truncate/refresh driver for one recycler."""

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
        """Run one maintenance cycle; returns what fired.

        The cycle runs, in order: (1) version-dead GC; (2) when the
        *size* trigger (graph outgrew its node limit) or the *idle*
        trigger (``maintenance_idle_seconds`` without a query) fires,
        one idle-subtree truncation; (3) when the idle trigger fired, a
        cached-benefit refresh.

        Safe from any thread (GC and truncation take every rewrite
        stripe); callable directly even when the background thread is
        disabled.  ``stop`` is the cooperative-shutdown hook: the
        background loop passes its stop flag so a cycle in progress
        abandons promptly when the thread is told to exit.  Synchronous
        callers (``Database.maintain()``) omit it — explicit maintenance
        keeps working after ``Database.close()``.  ``now`` overrides the
        trigger clock for deterministic tests.
        """
        now = time.monotonic() if now is None else now
        recycler = self.recycler
        config = self.config
        stopping = stop if stop is not None else _never_stop

        gc_removed = 0 if stopping() else \
            recycler.collect_version_dead(stop=stopping)

        limit = config.maintenance_graph_node_limit
        size_fired = limit is not None and \
            len(recycler.graph.nodes) > limit and not stopping()
        idle_after = config.maintenance_idle_seconds
        idle_fired = idle_after is not None and \
            now - recycler.last_activity >= idle_after and not stopping()

        removed = 0
        if size_fired or idle_fired:
            removed = recycler.truncate_idle(stop=stopping)
        refreshed = 0
        if idle_fired and not stopping():
            refreshed = recycler.refresh_cached_benefits(stop=stopping)

        with self._lock:
            # the background thread and Database.maintain() callers may
            # cycle concurrently; keep the counters' read-modify-writes
            # atomic
            self.stats.cycles += 1
            self.stats.size_triggers += int(size_fired)
            self.stats.idle_triggers += int(idle_fired)
            self.stats.truncate_runs += int(removed > 0)
            self.stats.nodes_truncated += removed
            self.stats.gc_nodes_collected += gc_removed
            self.stats.benefits_refreshed += refreshed
        return {
            "size_trigger": int(size_fired),
            "idle_trigger": int(idle_fired),
            "nodes_truncated": removed,
            "gc_nodes_collected": gc_removed,
            "benefits_refreshed": refreshed}
