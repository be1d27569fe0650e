"""Estimators the benchmark reports: nearest-rank percentiles and the
per-op median over identical passes.

``repro.harness.loadgen.percentile`` rounds ``q * (n - 1)``, which for
small ``n`` picks a different sample than the textbook nearest rank; the
benchmark uses its own definition so a reported ``p95`` always has
``n - ceil(0.95 n)`` samples beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def per_op_median(passes: Sequence[Sequence[float]]) -> list[float]:
    """Op ``i``'s service time: the median over the passes of its
    latency at reference host speed.

    Every pass replays the same op list against a freshly built
    database, so the passes differ only by what the host did to them.
    Raw latencies err on one side and the minimum would be the natural
    estimate; latencies divided by a measured host slowdown
    (:mod:`bench.hostspeed`) err on both, and the minimum of those
    selects the ops whose slowdown was overestimated — on the data in
    ``NOISE.md`` it read 25 % below the quiet-host time.  The median
    does not.
    """
    if not passes:
        raise ValueError("per_op_median needs at least one pass")
    length = len(passes[0])
    if any(len(p) != length for p in passes):
        raise ValueError("passes replay one op list and must be equally"
                         f" long, got {[len(p) for p in passes]}")
    return [statistics.median(column) for column in zip(*passes)]
