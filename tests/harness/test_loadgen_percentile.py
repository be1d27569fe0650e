"""The load generator reports nearest-rank percentiles — the same
definition as the repo benchmark's ``bench/stats.py``."""

from __future__ import annotations

import math

import pytest

from repro.harness.loadgen import LoadReport, nearest_rank


@pytest.mark.parametrize("values, q, expected", [
    ([1, 2, 3, 4], 0.5, 2),       # round(q * (n - 1)) picked 3
    ([1, 2, 3, 4], 0.25, 1),
    ([1, 2, 3, 4], 0.26, 2),
    ([1, 2, 3, 4], 1.0, 4),
    ([1, 2, 3, 4], 0.0, 1),       # clamped: there is no 0th sample
    (list(range(1, 21)), 0.5, 10),
    (list(range(1, 21)), 0.95, 19),
    (list(range(1, 21)), 0.99, 20),
    (list(range(1, 101)), 0.99, 99),
    ([7.0], 0.95, 7.0),
    ([], 0.5, 0.0),               # an empty report prints zeros
])
def test_nearest_rank_table(values, q, expected):
    assert nearest_rank(values, q) == expected


def test_agrees_with_the_benchmark_definition():
    # bench/stats.percentile: ordered[ceil(q * n) - 1] for q in (0, 1]
    for n in range(1, 40):
        ordered = [float(i) for i in range(n)]
        for q in (0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0):
            assert nearest_rank(ordered, q) \
                == ordered[math.ceil(q * n) - 1]


def test_report_uses_it():
    report = LoadReport(clients=1, duration_seconds=1.0, served=4,
                        latencies=[0.004, 0.001, 0.003, 0.002])
    assert report.latency(0.5) == 0.002
    assert report.as_dict()["p50_ms"] == 2.0
