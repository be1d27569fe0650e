"""Pins the ``RecyclerConfig`` surface: 12 fields, each with a caller
that needs it to differ (``docs/API.md`` says which).  A removed option
must not drift back — its value is a module constant beside its reader.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro import RecyclerConfig

FIELDS = {
    "mode", "cache_capacity", "alpha", "subsumption",
    "speculation_min_cost", "proactive_group_threshold",
    "proactive_benefit_steered", "min_store_cost", "benefit_threshold",
    "inflight_wait_timeout", "maintenance_interval_seconds",
    "truncate_min_idle_events",
}

REMOVED = (
    "optimize_plans", "lock_stripes", "replacement_scan_all_groups",
    "maintenance_idle_gap_factor", "maintenance_idle_gap_floor_seconds",
    "activity_ewma_alpha", "maintenance_hit_rate_budget_factor",
    "store_min_refs", "store_overhead_factor", "speculation_h",
    "speculation_benefit_threshold", "speculation_min_progress",
    "speculation_buffer_bytes", "proactive_topn_limit",
    "maintenance_budget_bytes", "maintenance_budget_seconds",
)


def test_exactly_the_twelve_fields():
    assert {f.name for f in fields(RecyclerConfig)} == FIELDS


@pytest.mark.parametrize("name", REMOVED)
def test_removed_option_is_rejected(name):
    with pytest.raises(TypeError):
        RecyclerConfig(**{name: 1})
