"""Physical operator base class and per-query execution context.

Operators follow the pull-based, vector-at-a-time model: ``next()``
returns a :class:`~repro.columnar.batch.Batch` of up to ``vector_size``
tuples, or ``None`` at end of stream.  Every ``next()`` is a few dozen
interpreter calls whatever the vector holds, so the vector size
(:data:`~repro.columnar.batch.VECTOR_SIZE`, measured — see
``docs/ARCHITECTURE.md``, "Engine fixed costs") is what amortises
them; ``QueryContext.vector_size`` exists for tests that pin tiny
vectors.  Every operator tracks

* ``self_cost`` — deterministic cost units charged by this operator alone;
* ``rows_out`` / ``bytes_out`` — output volume (recycler annotations).
  ``bytes_out`` is exact: :meth:`Batch.nbytes` is ``arr.nbytes`` per
  fixed-width column and a character count per STRING column,
  memoized on the batch, so a batch that passes through a filter, a
  store or a limit unchanged is sized once;
* ``progress()`` — the paper's progress-meter value in [0, 1] (Section
  III-D): scans and blocking operators know their own progress, everything
  else inherits from its left-deep descendant.

Cancellation: ``next()`` checks the context's
:class:`~repro.engine.cancellation.CancellationToken` before producing a
batch, so *every* pull anywhere in the tree is a cancellation point and
a cancelled or past-deadline query unwinds within one batch boundary
(see :mod:`repro.engine.cancellation`).
"""

from __future__ import annotations

from typing import Sequence

from ..columnar.batch import VECTOR_SIZE, Batch
from ..columnar.catalog import CatalogView
from ..columnar.table import Schema
from ..errors import ExecutionError
from ..plan.logical import PlanNode
from .cancellation import CancellationToken
from .cost import DEFAULT_COST_MODEL, CostMeter, CostModel


class QueryContext:
    """Shared state for one query execution."""

    __slots__ = ("catalog", "vector_size", "cost_model", "meter",
                 "query_id", "token")

    def __init__(self, catalog: CatalogView,
                 vector_size: int = VECTOR_SIZE,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 query_id: int = 0,
                 token: CancellationToken | None = None) -> None:
        self.catalog = catalog
        self.vector_size = vector_size
        self.cost_model = cost_model
        self.meter = CostMeter()
        self.query_id = query_id
        #: per-query cancellation token; a fresh never-cancelled token
        #: when the caller did not supply one, so operators can check
        #: unconditionally.
        self.token = token if token is not None else CancellationToken()


class PhysicalOperator:
    """Base class for all physical operators."""

    def __init__(self, ctx: QueryContext, logical: PlanNode | None,
                 children: Sequence["PhysicalOperator"],
                 schema: Schema) -> None:
        self.ctx = ctx
        self.logical = logical
        self.children = list(children)
        self.schema = schema
        self.self_cost = 0.0
        self.rows_out = 0
        self.bytes_out = 0
        self.exhausted = False
        self._opened = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self) -> None:
        if self._opened:
            raise ExecutionError(f"{self!r} opened twice")
        # Checked here because _open may do real work (table-function
        # invocation, cached-result projection) before the first batch.
        self.ctx.token.check()
        self._opened = True
        for child in self.children:
            child.open()
        self._open()

    def next(self) -> Batch | None:
        # The per-batch cancellation point: every pull in the tree backs
        # onto this method, so a cancel or deadline expiry stops the
        # query within one batch no matter which operator is running.
        self.ctx.token.check()
        batch = self._next()
        if batch is None:
            self.exhausted = True
        else:
            self.rows_out += len(batch)
            self.bytes_out += batch.nbytes()
        return batch

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._close()
        for child in self.children:
            child.close()

    # hooks -------------------------------------------------------------
    def _open(self) -> None:
        pass

    def _next(self) -> Batch | None:
        raise NotImplementedError

    def _close(self) -> None:
        pass

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def charge(self, units: float) -> None:
        self.self_cost += units
        self.ctx.meter.charge(units)

    def cumulative_cost(self) -> float:
        """Cost of this operator plus its whole subtree (this run)."""
        return self.self_cost + sum(c.cumulative_cost()
                                    for c in self.children)

    def progress(self) -> float:
        """Fraction of input processed; see module docstring."""
        if self.children:
            return self.children[0].progress()
        return 0.0

    def cost_progress(self) -> float:
        """Fraction of this subtree's *cost* already accrued.

        Streaming operators accrue cost proportionally to row progress;
        blocking operators (aggregate, sort, top-N) override this to
        report ~1.0 once their input is consumed, so speculative cost
        extrapolation does not wildly overestimate.
        """
        return self.progress()

    # ------------------------------------------------------------------
    def walk(self):
        """Post-order traversal of the physical tree."""
        for child in self.children:
            yield from child.walk()
        yield self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.schema.names})"
