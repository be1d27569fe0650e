"""Steady state: one database serves TPC-H pass after pass, with qgen
literals advancing per pass and a maintenance cycle after every stream.

After each pass the recycler graph is exactly what the paper's one
truncation rule keeps (Section II: subtrees "not accessed for some
time" go) — the child-closure of the materialized nodes and the nodes
accessed within the last ``truncate_min_idle_events`` query events —
and every result is byte-identical to an unrecycled run."""

from __future__ import annotations

from repro import Database, RecyclerConfig
from repro.workloads import tpch
from twin_replay import rule_survivors, table_bytes

SCALE_FACTOR = 0.002
STREAMS_PER_PASS = 2
PASSES = 3
#: well below a stream's 22 statements, so a cycle finds idle subtrees
#: as soon as the cache lets go of what they hold
MIN_IDLE_EVENTS = 8


def test_graph_is_the_rule_after_every_pass():
    def build(mode: str) -> Database:
        return Database(RecyclerConfig(
            mode=mode, cache_capacity=256 * 1024,
            maintenance_interval_seconds=None,
            truncate_min_idle_events=MIN_IDLE_EVENTS),
            catalog=tpch.build_catalog(SCALE_FACTOR, seed=3))

    db, reference = build("spec"), build("off")
    graph = db.recycler.graph
    truncated, reuses = [], []
    try:
        for number in range(PASSES):
            reused = 0
            streams = tpch.generate_streams(STREAMS_PER_PASS, SCALE_FACTOR,
                                            seed=7 + number)
            for stream in streams:
                for query in stream:
                    result = db.sql(query.sql)
                    assert table_bytes(result.table) == table_bytes(
                        reference.sql(query.sql).table), query.sql
                    reused += result.record.num_reused
                db.maintain()
            assert {node.node_id for node in graph.nodes} == \
                rule_survivors(graph, MIN_IDLE_EVENTS)
            graph.check_invariants()
            db.recycler.cache.check_invariants()
            truncated.append(db.summary()["maintenance"]["nodes_truncated"])
            reuses.append(reused)
    finally:
        db.close()
        reference.close()
    # the first pass's results sit in the cache with their subtrees;
    # once replacement lets them go the rule removes them, pass after
    # pass, and recycling still pays
    assert 0 < truncated[1] < truncated[2]
    assert all(count > 0 for count in reuses)
