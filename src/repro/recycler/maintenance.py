"""Background maintenance for a recycler (paper Section II).

The paper notes the recycler graph "has to be truncated periodically,
e.g. by periodically removing subtrees that have not been accessed for
some time".  The :class:`MaintenanceManager` is that caller — a daemon
thread owned by :class:`~repro.db.Database` that wakes on a configurable
cadence — and each cycle is that one rule: one
:meth:`~repro.recycler.recycler.Recycler.truncate_idle` call removes
every subtree idle for more than ``truncate_min_idle_events`` query
events (materialized and in-flight nodes and their children stay).  A
cycle whose cutoff has not passed the oldest stamp the last sweep kept
costs two integer reads
(:meth:`~repro.recycler.graph.RecyclerGraph.truncate_due`).

The rule also removes the history a ``drop_table`` or re-register
leaves behind: those *version-dead* subtrees are unmatchable by any new
snapshot, so once the queries pinned before the DDL finish, nothing
stamps them again and they age out like any other idle subtree.

The rule reads query events, never a wall clock, so a cycle is a pure
function of the graph.  ``Database.close()`` (or the manager's
:meth:`stop`) shuts the thread down cleanly; :meth:`run_once` applies
one cycle synchronously for deterministic tests and for deployments
that prefer an external cron.

Shutdown is cooperative all the way down: a cycle in progress passes
the manager's stop flag to the ``stop`` hook of
:meth:`Recycler.truncate_idle`, which consults it at its phase
boundaries — so ``stop()`` returns promptly instead of waiting out a
large sweep, mirroring the query-side
:class:`~repro.engine.cancellation.CancellationToken`.
"""

from __future__ import annotations

import threading
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
    #: truncations that actually removed nodes (most cycles find
    #: nothing idle enough; that is not a run).
    truncate_runs: int = 0
    nodes_truncated: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class MaintenanceManager:
    """Idle-truncation driver for one recycler."""

    def __init__(self, recycler: Recycler) -> None:
        self.recycler = recycler
        self.config = recycler.config
        self.stats = MaintenanceStats()
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
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def _loop(self) -> None:
        interval = self.config.maintenance_interval_seconds
        while not self._stop.wait(interval):
            self.run_once(stop=self._stop.is_set)

    # ------------------------------------------------------------------
    # one cycle
    # ------------------------------------------------------------------
    def run_once(self, stop: Callable[[], bool] | None = None
                 ) -> dict[str, int]:
        """Run one maintenance cycle: one idle-subtree truncation by
        event age.  Returns the nodes it removed.

        Safe from any thread (a sweep that is due takes every rewrite
        stripe); callable directly even when the background thread is
        disabled.  ``stop`` is the cooperative-shutdown hook: the
        background loop passes its stop flag so a cycle in progress
        abandons promptly when the thread is told to exit.  Synchronous
        callers (``Database.maintain()``) omit it — explicit maintenance
        keeps working after ``Database.close()``.
        """
        stopping = stop if stop is not None else _never_stop
        removed = 0 if stopping() else \
            self.recycler.truncate_idle(stop=stopping)

        with self._lock:
            # the background thread and Database.maintain() callers may
            # cycle concurrently; keep the counters' read-modify-writes
            # atomic
            self.stats.cycles += 1
            self.stats.truncate_runs += int(removed > 0)
            self.stats.nodes_truncated += removed
        return {"nodes_truncated": removed}
