"""Statement templates plan once: a text served from its template's plan
runs no validation and no optimizer, and its literal-free subtrees match
from the template's memo — and nothing the recycler decides can tell.

Every test runs :class:`~twin_replay.TemplateTwins`: ``slow`` is the
same database with templates that keep no plan, so it validates,
optimizes and matches every text in full.  Rows, query records, the
recycler's state and the optimizer's counters must come out equal.  The
``tpch_pressure`` replay also runs :class:`~twin_replay.Twins`, whose
``slow`` executes a plan bound afresh for every statement.

The memo tests change the graph or the catalog *between* two instances
of one template — truncation, drop and re-register, a rename — so that
the memo entry is stale when the second instance replays it.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Database, Table
from repro.columnar import FLOAT64, INT64, STRING, Catalog, Schema
from twin_replay import TemplateTwins, Twins, quiet_config

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import MAINTAIN, WORKLOADS  # noqa: E402


def optimizer(db: Database) -> dict:
    return db.summary()["optimizer"]


def statement_cache(db: Database) -> dict:
    return db.summary()["service"]["statement_cache"]


@pytest.mark.parametrize("seed", [7, 11, 23])
def test_tpch_pressure_replay(seed):
    """The benchmark's ``tpch_pressure`` op list at a quarter size,
    maintenance cycles included."""
    workload = WORKLOADS["tpch_pressure"]
    size = 0.25

    def build() -> Database:
        return workload.build(seed, size, "spec")

    pairs = (Twins(build), TemplateTwins(build))
    try:
        for op in workload.make_ops(seed, size):
            for twins in pairs:
                if op.kind == MAINTAIN:
                    twins.apply(lambda db: db.maintain())
                    twins.assert_same_state()
                else:
                    twins.sql(op.text)
        for twins in pairs:
            twins.assert_same_state()
        templates = pairs[1]
        planned = statement_cache(templates.fast)
        assert planned["template_plans"] == planned["template_hits"] > 0
        assert statement_cache(templates.slow)["template_plans"] == 0
        assert optimizer(templates.fast)["memo_nodes"] > 0
        assert optimizer(templates.slow)["memo_nodes"] == 0
    finally:
        for twins in pairs:
            twins.close()


# ---------------------------------------------------------------------
# a stale memo is matched afresh
# ---------------------------------------------------------------------
ROWS = 300


def make_table() -> Table:
    rng = np.random.default_rng(5)
    return Table(Schema(["k", "g", "v", "s"],
                        [INT64, INT64, FLOAT64, STRING]), {
        "k": np.arange(ROWS, dtype=np.int64),
        "g": rng.integers(0, 4, ROWS),
        "v": rng.uniform(0, 10, ROWS),
        "s": np.array(["a", "b", "c"] * (ROWS // 3), dtype=object),
    })


def make_dimension() -> Table:
    return Table(Schema(["g", "label"], [INT64, STRING]), {
        "g": np.arange(4, dtype=np.int64),
        "label": np.array(["w", "x", "y", "z"], dtype=object),
    })


def build() -> Database:
    catalog = Catalog()
    catalog.register_table("t", make_table())
    catalog.register_table("d", make_dimension())
    return Database(quiet_config(8 * 1024 * 1024), catalog=catalog)


#: the filter holds the literal; the scan of ``t`` and the renaming
#: projection over ``d`` are literal-free (memoized) subtrees
SHAPE = ("SELECT label, count(*) AS n, sum(v) AS total FROM t, d"
         " WHERE t.g = d.g AND k < {} GROUP BY label")


@pytest.fixture
def twins():
    pair = TemplateTwins(build)
    yield pair
    pair.close()


def template_of(db: Database, text: str):
    return db.service._statements[text].template


def memo_graph_nodes(template) -> list:
    """The graph nodes ``template``'s memo entries name (``None`` where
    the node is gone)."""
    return [ref() for entry in template.matches.values()
            for _, ref, _ in entry or ()]


def test_a_memo_entry_replays_once_the_subtree_matched(twins):
    twins.sql(SHAPE.format(100))
    assert optimizer(twins.fast)["memo_nodes"] == 0
    twins.sql(SHAPE.format(200))
    twins.assert_same_state()
    memo = optimizer(twins.fast)
    assert memo["memo_nodes"] == 3 and memo["memo_stale"] == 0
    assert statement_cache(twins.fast)["template_plans"] == 1


def truncate_first_instance(twins) -> object:
    """Run the first instance of :data:`SHAPE`, then truncate every node
    it matched; returns its template."""
    twins.sql(SHAPE.format(100))
    template = template_of(twins.fast, SHAPE.format(100))
    twins.apply(lambda db: db.flush_cache())
    twins.sql("SELECT count(*) AS n FROM t")      # (moves the clock on)
    twins.apply(lambda db: db.recycler.truncate_idle(0))
    graph = twins.fast.recycler.graph
    assert not any(graph.is_live(node)
                   for node in memo_graph_nodes(template))
    return template


def test_truncated_nodes_are_matched_afresh(twins):
    template = truncate_first_instance(twins)
    twins.sql(SHAPE.format(200))
    twins.assert_same_state()
    memo = optimizer(twins.fast)
    assert memo["memo_nodes"] == 0 and memo["memo_stale"] == 2
    graph = twins.fast.recycler.graph
    assert all(graph.is_live(node) for node in memo_graph_nodes(template))
    twins.sql(SHAPE.format(300))
    assert optimizer(twins.fast)["memo_nodes"] == 3
    twins.assert_same_state()


def test_the_memo_keeps_no_truncated_node_alive(twins):
    template = truncate_first_instance(twins)
    # with the statements gone (they remember the nodes their plans
    # unified with), nothing holds the truncated nodes but the memo
    for db in (twins.fast, twins.slow):
        with db.service._statement_lock:
            db.service._statements.clear()
    gc.collect()
    assert memo_graph_nodes(template) == [None] * 3
    twins.sql(SHAPE.format(200))
    twins.assert_same_state()
    assert optimizer(twins.fast)["memo_stale"] == 2


def reregister(db: Database) -> None:
    db.drop_table("t")
    db.register_table("t", make_table())


def rename_and_back(db: Database) -> None:
    db.rename_column("t", "s", "s2")
    db.rename_column("t", "s2", "s")


@pytest.mark.parametrize("ddl", [reregister, rename_and_back],
                         ids=["drop and re-register", "rename and back"])
def test_a_new_incarnation_is_matched_afresh(twins, ddl):
    """The schema is as it was, so the template still serves; the table
    is another incarnation, so its scan must be a fresh leaf."""
    twins.sql(SHAPE.format(100))
    template = template_of(twins.fast, SHAPE.format(100))
    [old_leaf] = [node for node in memo_graph_nodes(template)
                  if node.plan.op_name == "scan"
                  and node.plan.table == "t"]
    twins.apply(ddl)
    twins.sql(SHAPE.format(200))
    twins.assert_same_state()
    assert statement_cache(twins.fast)["template_plans"] == 1
    memo = optimizer(twins.fast)
    # the projection over ``d`` is still of its incarnation
    assert memo["memo_nodes"] == 2 and memo["memo_stale"] == 1
    [new_leaf] = [node for node in memo_graph_nodes(template)
                  if node.plan.op_name == "scan"
                  and node.plan.table == "t"]
    assert new_leaf is not old_leaf
    assert new_leaf.matches_incarnations(twins.fast.catalog)
    assert not old_leaf.matches_incarnations(twins.fast.catalog)


# ---------------------------------------------------------------------
# templates the optimizer plans per text
# ---------------------------------------------------------------------
@pytest.mark.parametrize("text", [
    # UNION ALL inputs are ordered by fingerprints that hold the values
    "SELECT k FROM t WHERE k < {} UNION ALL SELECT k FROM t WHERE k < {}",
    # two conjuncts that differ only in a value: the sort reads it
    "SELECT k FROM t WHERE k > {} AND k > {} AND s LIKE 'a%'",
], ids=["union", "conjunct order"])
def test_value_dependent_templates_plan_every_text(twins, text):
    for values in ((10, 280), (280, 10), (5, 6)):
        twins.sql(text.format(*values))
    twins.assert_same_state()
    [template] = twins.fast.service._templates.values()
    assert template.plan is None and template.matches is None
    seen = statement_cache(twins.fast)
    assert seen["template_hits"] == 2 and seen["template_plans"] == 0
