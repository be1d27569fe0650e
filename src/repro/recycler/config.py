"""Recycler configuration.

The four modes mirror the paper's evaluation (Section V):

* ``off``  — no recycling at all (the "naive" baseline);
* ``hist`` — history-only: store decisions are made in the rewriting phase
  from recycler-graph statistics; a result must have been *seen before* to
  be materialized;
* ``spec`` — history + speculation: store operators are additionally
  injected on never-seen expensive-looking nodes and decide at run time via
  progress-meter extrapolation;
* ``pa``   — ``spec`` + proactive rewriting (top-N caching, cube caching
  with selections, cube caching with binning).
"""

from __future__ import annotations

from dataclasses import dataclass

MODE_OFF = "off"
MODE_HIST = "hist"
MODE_SPEC = "spec"
MODE_PA = "pa"

ALL_MODES = (MODE_OFF, MODE_HIST, MODE_SPEC, MODE_PA)


@dataclass
class RecyclerConfig:
    """Tunable parameters of the recycler (paper defaults where given).
    A field only when two callers need different values
    (``docs/API.md`` says who); the rest are constants by their reader."""

    mode: str = MODE_SPEC

    #: recycler cache capacity in bytes; ``None`` = unlimited.
    cache_capacity: int | None = 256 * 1024 * 1024

    #: aging factor alpha < 1 applied to every node's ``hR`` per query
    #: event (Eq. 5); 1.0 disables aging.
    alpha: float = 0.995

    #: minimum benefit (Eq. 1) for injecting a history store at all; keeps
    #: cheap-but-large results (plain scans) from being materialized.
    benefit_threshold: float = 0.02

    #: minimum base cost for a history store; pure overhead below this.
    min_store_cost: float = 100.0

    #: minimum extrapolated cost for a speculative store to proceed.
    speculation_min_cost: float = 100.0

    #: enable subsumption matching (Section IV-A).
    subsumption: bool = True

    #: proactive cube caching: maximum distinct values of the selection
    #: column(s) pulled into the GROUP BY (Section IV-B heuristic).
    proactive_group_threshold: int = 64

    #: benefit-steered proactive execution (paper Section IV-B): execute
    #: the proactive variant only once its aggregate has a cached result or
    #: a history store decision; when False the variant always executes.
    proactive_benefit_steered: bool = True

    #: safety net for blocking in-flight sharing (real sessions): a query
    #: stalled on a concurrent producer gives up waiting after this many
    #: seconds and recomputes instead; ``None`` waits indefinitely.
    #: ``Recycler.abandon`` (called when a producer's execution fails)
    #: releases its registrations, so the timeout only matters for
    #: pathological cases such as a producer thread dying uncleanly.
    inflight_wait_timeout: float | None = 30.0

    #: background maintenance cadence in seconds; ``None`` disables the
    #: :class:`~repro.recycler.maintenance.MaintenanceManager` thread
    #: (``Database.maintain()`` still runs a cycle on demand).
    maintenance_interval_seconds: float | None = None

    #: every maintenance cycle removes the subtrees idle for more than
    #: this many query events (paper Section II: "removing subtrees that
    #: have not been accessed for some time"); materialized and
    #: in-flight nodes and their children stay.
    truncate_min_idle_events: int = 256

    def __post_init__(self) -> None:
        if self.mode not in ALL_MODES:
            raise ValueError(f"unknown recycler mode {self.mode!r};"
                             f" expected one of {ALL_MODES}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.maintenance_interval_seconds is not None and \
                self.maintenance_interval_seconds <= 0:
            raise ValueError(
                "maintenance_interval_seconds must be positive or None")
        if self.truncate_min_idle_events < 0:
            raise ValueError("truncate_min_idle_events must be >= 0")

    @property
    def history_enabled(self) -> bool:
        return self.mode in (MODE_HIST, MODE_SPEC, MODE_PA)

    @property
    def speculation_enabled(self) -> bool:
        return self.mode in (MODE_SPEC, MODE_PA)

    @property
    def proactive_enabled(self) -> bool:
        return self.mode == MODE_PA
