"""The ``store`` operator (paper Section II, III-D).

A store operator sits on top of a subtree and either

* **materializes** its input (decision already made from history),
* **buffers** it while *speculating* — extrapolating the input's final
  cost and size from run-time progress, then deciding — or
* **passes tuples along** untouched,

never interrupting the tuple flow.  The recycler stays decoupled from the
engine through a :class:`StoreRequest` of callbacks.

``on_complete`` feeds the recycler's **version-tagged admission**: the
completed result carries the producing query's catalog-snapshot
versions, and the cache refuses to publish it when a concurrent DDL has
already superseded any table it was computed from — so a store that
finishes scanning an old table incarnation (including the drain in
:meth:`StoreOp._close`) can never plant a stale entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..columnar.batch import Batch
from ..columnar.table import Table
from ..errors import QueryAborted
from .base import PhysicalOperator, QueryContext
from .scan import ReuseScanOp

MODE_MATERIALIZE = "materialize"
MODE_SPECULATE = "speculate"


@dataclass
class SpeculationEstimate:
    """Extrapolated properties of an in-flight result."""

    est_cost: float
    est_size_bytes: int
    est_rows: int
    progress: float
    exact: bool  # True when the stream finished before the decision


@dataclass
class StoreStats:
    """Measured properties of a fully produced result."""

    measured_cost: float      # cumulative subtree cost units, this run
    rows: int
    size_bytes: int
    store_overhead: float     # cost charged by the store itself
    wall_seconds: float = 0.0
    #: (handle, emit_cost) per cached result reused below this store —
    #: lets the recycler reconstruct the *base* cost (Eq. 2 inverse).
    reused: list[tuple[object, float]] = field(default_factory=list)


@dataclass
class StoreRequest:
    """What the recycler asks a store operator to do.

    ``tag`` is opaque to the engine (the recycler's graph node).
    ``decide`` is only consulted in speculation mode; ``on_complete`` fires
    when a result was fully materialized, and ``on_abort`` (optional) when
    speculation rejected the result.
    """

    mode: str
    tag: object = None
    on_complete: Callable[[Table, StoreStats, object], None] | None = None
    decide: Callable[[SpeculationEstimate, object], bool] | None = None
    on_abort: Callable[[object], None] | None = None
    buffer_budget_bytes: int = 32 * 1024 * 1024
    min_progress: float = 0.05


_STATE_BUFFERING = "buffering"
_STATE_MATERIALIZING = "materializing"
_STATE_PASSING = "passing"


class StoreOp(PhysicalOperator):
    """Materialize / speculate / pass through (transparent to the plan)."""

    def __init__(self, ctx: QueryContext, child: PhysicalOperator,
                 request: StoreRequest) -> None:
        super().__init__(ctx, child.logical, [child], child.schema)
        self.request = request
        if request.mode == MODE_MATERIALIZE:
            self._state = _STATE_MATERIALIZING
        elif request.mode == MODE_SPECULATE:
            self._state = _STATE_BUFFERING
        else:
            raise ValueError(f"unknown store mode {request.mode!r}")
        self._buffer: list[Batch] = []
        self._buffered_rows = 0
        self._buffered_bytes = 0
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    def _next(self) -> Batch | None:
        child = self.children[0]
        batch = child.next()
        if batch is None:
            self._on_end_of_stream()
            return None
        if self._state == _STATE_MATERIALIZING:
            self._retain(batch, charge_materialize=True)
        elif self._state == _STATE_BUFFERING:
            self.charge(len(batch) * self.ctx.cost_model.store_buffer_tuple)
            self._retain(batch, charge_materialize=False)
            self._maybe_decide()
        return batch

    def _retain(self, batch: Batch, charge_materialize: bool) -> None:
        self._buffer.append(batch)
        self._buffered_rows += len(batch)
        nbytes = batch.nbytes()
        self._buffered_bytes += nbytes
        if charge_materialize:
            model = self.ctx.cost_model
            self.charge(len(batch) * model.store_materialize_tuple
                        + nbytes * model.store_materialize_byte)

    # ------------------------------------------------------------------
    # speculation
    # ------------------------------------------------------------------
    def _maybe_decide(self) -> None:
        progress = self.children[0].progress()
        over_budget = self._buffered_bytes > self.request.buffer_budget_bytes
        if progress < self.request.min_progress and not over_budget:
            return
        estimate = self._estimate(progress, exact=False)
        self._apply_decision(estimate)

    def _estimate(self, progress: float, exact: bool) -> SpeculationEstimate:
        if exact or progress >= 1.0:
            return SpeculationEstimate(
                est_cost=self.children[0].cumulative_cost(),
                est_size_bytes=self._buffered_bytes,
                est_rows=self._buffered_rows,
                progress=1.0, exact=True)
        progress = max(progress, 1e-6)
        # Cost extrapolates by *cost* progress (blocking subtrees have
        # already accrued nearly all their cost); size by row progress.
        cost_progress = max(self.children[0].cost_progress(), progress)
        return SpeculationEstimate(
            est_cost=self.children[0].cumulative_cost() / cost_progress,
            est_size_bytes=int(self._buffered_bytes / progress),
            est_rows=int(self._buffered_rows / progress),
            progress=progress, exact=False)

    def _apply_decision(self, estimate: SpeculationEstimate) -> None:
        decide = self.request.decide
        accept = bool(decide(estimate, self.request.tag)) if decide else False
        if accept:
            self._state = _STATE_MATERIALIZING
            # Buffered tuples were only charged buffering cost; charge the
            # materialization premium retroactively.
            model = self.ctx.cost_model
            self.charge(self._buffered_rows * model.store_materialize_tuple
                        + self._buffered_bytes
                        * model.store_materialize_byte)
        else:
            self._state = _STATE_PASSING
            self._buffer = []
            self._buffered_rows = 0
            self._buffered_bytes = 0
            if self.request.on_abort is not None:
                self.request.on_abort(self.request.tag)

    # ------------------------------------------------------------------
    def _close(self) -> None:
        """Drain and finish a pending materialization.

        A parent (e.g. the ``Limit`` the proactive top-N strategy places
        above a store) may stop pulling early.  A store that decided to
        materialize still owes the cache the *complete* result — that is
        the very cost the proactive strategy signed up for — so it keeps
        pulling its child to exhaustion.  An undecided speculative store
        first decides from the current extrapolation.

        A **cancelled or past-deadline query is the exception**: its
        store must neither drain the child (that is exactly the work
        cancellation exists to stop) nor publish the partial buffer.
        With the context token tripped the store aborts instead —
        ``on_complete`` never fires, so nothing reaches the cache, and
        ``on_abort`` releases the in-flight registration so consumers
        stalled on this node wake immediately (the recycler's
        ``abandon`` then retires the whole token as a backstop).
        """
        if self._finished:
            return
        if self.ctx.token.aborted:
            self._finished = True
            if self._state != _STATE_PASSING:
                self._apply_decision_reject()
            return
        if self._state == _STATE_BUFFERING:
            progress = self.children[0].progress()
            if progress >= self.request.min_progress:
                self._apply_decision(self._estimate(progress, exact=False))
            else:
                self._apply_decision_reject()
        if self._state == _STATE_MATERIALIZING:
            child = self.children[0]
            try:
                while True:
                    batch = child.next()
                    if batch is None:
                        break
                    self._retain(batch, charge_materialize=True)
            except QueryAborted:
                # The deadline (or a cancel) fired while draining for
                # the *cache* — the query's own answer is already
                # delivered, so give up on materializing instead of
                # failing a finished query.
                self._finished = True
                self._apply_decision_reject()
                return
            self._on_end_of_stream()

    def _apply_decision_reject(self) -> None:
        self._state = _STATE_PASSING
        self._buffer = []
        self._buffered_rows = 0
        self._buffered_bytes = 0
        if self.request.on_abort is not None:
            self.request.on_abort(self.request.tag)

    def _on_end_of_stream(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self._state == _STATE_BUFFERING:
            # Stream ended before a decision: decide with exact numbers.
            self._apply_decision(self._estimate(1.0, exact=True))
        if self._state == _STATE_MATERIALIZING:
            table = Table.from_batches(self.schema, self._buffer,
                                       nbytes=self._buffered_bytes)
            reused = [(op._handle, op.self_cost)
                      for op in self.children[0].walk()
                      if isinstance(op, ReuseScanOp)]
            stats = StoreStats(
                measured_cost=self.children[0].cumulative_cost(),
                rows=table.num_rows,
                size_bytes=table.nbytes(),
                store_overhead=self.self_cost,
                reused=reused)
            if self.request.on_complete is not None:
                self.request.on_complete(table, stats, self.request.tag)
