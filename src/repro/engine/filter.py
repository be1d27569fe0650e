"""Streaming selection operator."""

from __future__ import annotations

import numpy as np

from ..columnar.batch import Batch
from ..plan.logical import Select
from .base import PhysicalOperator, QueryContext


class FilterOp(PhysicalOperator):
    """Apply a boolean predicate, keeping qualifying rows."""

    def __init__(self, ctx: QueryContext, logical: Select,
                 child: PhysicalOperator) -> None:
        super().__init__(ctx, logical, [child], child.schema)
        self._predicate = logical.predicate

    def _next(self) -> Batch | None:
        while True:
            # the child's next() is the per-input-batch cancellation point
            batch = self.children[0].next()
            if batch is None:
                return None
            self.charge(len(batch) * self.ctx.cost_model.filter_tuple)
            mask = np.asarray(self._predicate.eval(batch), dtype=bool)
            if mask.all():
                return batch
            if mask.any():
                return batch.filter(mask)
            # fully filtered out: pull the next batch
