"""Which rewrite stripe a statement takes (``striping.stripe_key``).

A text served from a statement template runs a plan substituted from the
template's: a new object per text, whose own fingerprint would be a hash
over the whole tree for every cold statement — and would spread two
texts of one shape over the stripes by their literal values alone.  Such
a statement keys on the template plan's memoized fingerprint instead,
so every instance of one template takes one stripe.  A plan that is not
the template's substituted — prebuilt, or pruned of proved window
conjuncts — keys on its own fingerprint.  Under the GIL stripes were
measured to make no difference; what is checked here is the assignment.
"""

from __future__ import annotations

import pytest

from repro import Database, RecyclerConfig
from repro.exec_service import Statement
from repro.plan.logical import Select
from repro.recycler.striping import plan_fingerprint, stripe_key
from repro.sql import sql_to_plan
from repro.workloads import timeseries as ts

INITIAL = 512


@pytest.fixture
def db():
    db = Database(RecyclerConfig(mode="spec"),
                  catalog=ts.build_catalog(INITIAL, seed=7))
    yield db
    db.close()


def prepared_keys(db: Database) -> list[tuple[int, object]]:
    """Record, per prepare, the stripe key and the plan it ran."""
    seen = []
    prepare = db.recycler.prepare

    def recorded(*args, **kwargs):
        prepared = prepare(*args, **kwargs)
        seen.append((prepared.fingerprint, prepared.original_plan))
        return prepared

    db.recycler.prepare = recorded
    return seen


def test_two_instances_of_a_template_take_one_stripe(db):
    seen = prepared_keys(db)
    shape = "SELECT sensor, temp FROM metrics WHERE temp > {}"
    snapshot = db.catalog.snapshot()
    first = db.service.statement(shape.format(1.5), snapshot)
    second = db.service.statement(shape.format(2.5), snapshot)
    template = first.template
    assert template is not None and second.template is template
    assert second.plan is not template.plan
    key = plan_fingerprint(template.plan)
    assert stripe_key(first, first.plan) == key
    assert stripe_key(second, second.plan) == key
    # their own fingerprints tell the literal values apart
    assert plan_fingerprint(first.plan) != plan_fingerprint(second.plan)
    db.sql(shape.format(1.5))
    db.sql(shape.format(2.5))
    assert [fingerprint for fingerprint, _ in seen] == [key, key]
    stripes = db.recycler._stripes
    assert stripes.for_key(seen[0][0]) is stripes.for_key(seen[1][0])


def test_a_prebuilt_plan_fingerprints_its_own_plan(db):
    seen = prepared_keys(db)
    text = "SELECT sensor, temp FROM metrics WHERE temp > 3.5"
    snapshot = db.catalog.snapshot()
    statement = Statement.prebuilt(sql_to_plan(text, snapshot), snapshot,
                                   db.recycler.optimize)
    assert statement.template is None
    assert stripe_key(statement, statement.plan) == \
        plan_fingerprint(statement.plan)
    db.execute(sql_to_plan(text, snapshot))
    [(fingerprint, plan)] = seen
    assert fingerprint == plan_fingerprint(plan)


def test_a_window_pruned_variant_fingerprints_its_own_plan(db):
    seen = prepared_keys(db)
    last = ts.T0 + (INITIAL - 1) * ts.TICK
    shape = "SELECT sensor, temp FROM metrics WHERE ts < {}"
    for bound in (last + 1, last + 2):      # both proved: past the max
        db.sql(shape.format(bound))
    snapshot = db.catalog.snapshot()
    statement = db.service.statement(shape.format(last + 2), snapshot)
    assert statement.template is not None
    variant = statement.variant(snapshot)
    assert variant.proved and variant.plan is not statement.plan
    assert not any(isinstance(node, Select) for node in variant.plan.walk())
    assert stripe_key(statement, variant.plan) == \
        plan_fingerprint(variant.plan) != \
        plan_fingerprint(statement.template.plan)
    for fingerprint, plan in seen:
        assert fingerprint == plan_fingerprint(plan)


@pytest.mark.parametrize("mode", ["off", "spec"])
def test_only_a_recycling_pass_takes_stripes(mode, monkeypatch):
    """An ``off`` query matches nothing and registers nothing: neither
    prepare nor finalize takes a stripe, so a whole ``off`` pass hashes
    no plan for one."""
    from repro.recycler import recycler, striping
    from twin_replay import replay_fresh, tpch_stream

    calls = []

    def counted(plan):
        calls.append(plan)
        return plan_fingerprint(plan)
    monkeypatch.setattr(striping, "plan_fingerprint", counted)
    monkeypatch.setattr(recycler, "plan_fingerprint", counted,
                        raising=False)
    replay_fresh(*tpch_stream(mode))
    assert (len(calls) > 0) == (mode != "off")
