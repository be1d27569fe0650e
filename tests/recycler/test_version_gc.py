"""Version-dead history: drop/re-register strands graph history that no
future snapshot can match; matching never reaches it, and the idle
truncation removes it once it has aged out.

Incarnations (not versions) decide deadness: ``append_rows`` bumps a
table's *version* but not its *incarnation*, so update history survives
— exactly the paper's committed-update model — while ``drop_table`` /
``register_table`` (replace) / ``rename_column`` /
``register_function`` (replace) orphan the old incarnation's subtrees.
No query stamps those again, so they fall behind the truncation cutoff
like any other idle subtree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64

SCHEMA = Table.from_rows(["g", "v"], [INT64, FLOAT64], []).schema


def make_table(seed: int = 0, n: int = 2000) -> Table:
    rng = np.random.default_rng(seed)
    return Table(SCHEMA, {"g": rng.integers(0, 6, n),
                          "v": rng.uniform(0, 1, n)})


def make_db(**config_kwargs) -> Database:
    db = Database(RecyclerConfig(mode="spec", **config_kwargs))
    db.register_table("t", make_table())
    return db


def queries_over(source: str, column: str = "v") -> list[str]:
    return [f"SELECT g, sum({column}) AS s FROM {source}"
            f" WHERE {column} > {i / 10:.1f} GROUP BY g" for i in range(4)]


QUERIES = queries_over("t")


def register_f(db: Database, seed: int) -> None:
    db.register_function("f", lambda: make_table(seed), SCHEMA)


def dead_nodes(db: Database) -> list:
    """The graph nodes whose incarnation stamps the live catalog has
    left behind for good."""
    return [node for node in db.recycler.graph.nodes
            if not node.matches_incarnations(db.catalog)]


def drop_and_reregister(db: Database) -> None:
    db.drop_table("t")
    db.register_table("t", make_table(seed=1))


#: case -> (statements before the DDL, the DDL, statements after it)
DDL_CASES = {
    "drop_reregister": (QUERIES, drop_and_reregister, QUERIES),
    "replace": (QUERIES,
                lambda db: db.register_table("t", make_table(seed=1)),
                QUERIES),
    "rename_column": (QUERIES,
                      lambda db: db.rename_column("t", "v", "w"),
                      queries_over("t", "w")),
    "function_reregister": (queries_over("f()"),
                            lambda db: register_f(db, 1),
                            queries_over("f()")),
}


class TestDeadHistoryAgesOut:
    @pytest.mark.parametrize("case", sorted(DDL_CASES))
    def test_dead_history_is_never_matched_and_ages_out(self, case):
        before, ddl, after = DDL_CASES[case]
        idle = 4
        db = make_db(truncate_min_idle_events=idle)
        register_f(db, 0)
        reference = Database(RecyclerConfig(mode="off"))
        reference.register_table("t", make_table())
        register_f(reference, 0)
        for sql in before * 2:     # the repeats materialize results
            db.sql(sql)
        assert len(db.recycler.cache) > 0
        ddl(db)
        ddl(reference)
        graph = db.recycler.graph
        dead = dead_nodes(db)
        assert dead and len(dead) == len(graph.nodes)
        # the DDL's invalidation evicted every dead node's result
        assert not any(node.is_materialized for node in dead)
        stamps = {node.node_id: node.last_access_event for node in dead}

        statements = (after * 2)[:idle + 1]
        for sql in statements[:idle]:
            assert db.sql(sql).table.to_rows() == \
                reference.sql(sql).table.to_rows()
        # the dead subtree accessed last before the DDL stays within the
        # idle window ...
        db.maintain()
        last = max(stamps.values())
        survivors = dead_nodes(db)
        assert {node.node_id for node in survivors} == \
            {node_id for node_id, stamp in stamps.items() if stamp == last}
        sql = statements[idle]
        assert db.sql(sql).table.to_rows() == \
            reference.sql(sql).table.to_rows()
        # ... no statement matched a dead node (matching stamps what it
        # matches) ...
        assert {node.node_id: node.last_access_event
                for node in dead} == stamps
        # ... and the first cycle past the window removes the rest
        assert db.maintain()["nodes_truncated"] == len(survivors)
        assert dead_nodes(db) == []
        assert not any(graph.is_live(node) for node in dead)
        graph.check_invariants()
        db.recycler.cache.check_invariants()
        db.close()
        reference.close()

    def test_append_keeps_history_alive(self):
        db = make_db()
        for sql in QUERIES:
            db.sql(sql)
        graph = db.recycler.graph
        populated = len(graph.nodes)
        db.append_rows("t", [(3, 0.5)])
        assert dead_nodes(db) == []
        db.maintain()
        assert len(graph.nodes) == populated
        # and the history is actually rematched: re-issuing inserts
        # nothing new
        db.sql(QUERIES[0])
        assert len(graph.nodes) == populated
        db.close()

    def test_dead_leaves_unreachable_to_matching(self):
        """After drop/re-register a repeat query must insert a fresh
        subtree (never match old-incarnation nodes), while the stale
        twins sit dead until they age out."""
        db = make_db()
        result = db.sql(QUERIES[0])
        inserted_first = result.record.graph_nodes
        drop_and_reregister(db)
        db.sql(QUERIES[0])
        graph = db.recycler.graph
        # the graph doubled: a full fresh subtree next to the dead one
        assert len(graph.nodes) == 2 * inserted_first
        assert len(dead_nodes(db)) == inserted_first
        graph.check_invariants()
        db.close()


class TestPinningAndIsolation:
    def test_pinned_dead_node_survives_until_its_producer_releases_it(
            self):
        """Truncation's pinning contract, isolated from the facade: the
        ``Database`` DDL path also aborts in-flight producers of stale
        nodes, so deadness is created here at the catalog level — the
        incarnation bump without the sweep — leaving the producer
        registered while its nodes age past the idle window."""
        idle = 2
        db = make_db(truncate_min_idle_events=idle)
        recycler = db.recycler
        graph = recycler.graph
        prepared = recycler.prepare(db.plan(QUERIES[0]),
                                    producer_token="pinned")
        producing = recycler.inflight.active_nodes()
        assert producing
        db.catalog.drop_table("t")
        db.catalog.register_table("t", make_table(seed=3))
        for _ in range(idle + 1):
            graph.tick()
        db.maintain()
        assert producing <= {node.node_id for node in graph.nodes}, \
            "truncation removed an in-flight node"
        assert dead_nodes(db)
        graph.check_invariants()
        # once the producer lets go, the next cycle removes the rest
        recycler.abandon(prepared)
        assert db.maintain()["nodes_truncated"] > 0
        assert dead_nodes(db) == []
        graph.check_invariants()
        db.close()

    def test_old_snapshot_query_still_matches_old_incarnation(self):
        """Snapshot isolation extends to matching: a query pinned before
        the DDL unifies with the old-incarnation subtree (and owes the
        old answer), even while new-snapshot queries get fresh nodes."""
        db = make_db()
        db.sql(QUERIES[0])
        nodes_after_first = len(db.recycler.graph.nodes)
        old_snapshot = db.catalog.snapshot()
        old_plan = db.plan(QUERIES[0], snapshot=old_snapshot)
        db.drop_table("t")
        db.register_table("t", make_table(seed=4))
        result = db.recycler.execute(old_plan, snapshot=old_snapshot)
        # the old-snapshot run matched the existing subtree: no growth
        assert len(db.recycler.graph.nodes) == nodes_after_first
        assert result.table.num_rows > 0
        db.close()

    def test_results_correct_across_generations(self):
        db = make_db()
        first = db.sql(QUERIES[1]).table.to_rows()
        assert db.sql(QUERIES[1]).table.to_rows() == first
        db.drop_table("t")
        db.register_table("t", make_table(seed=5))
        reference = Database(RecyclerConfig(mode="off"))
        reference.register_table("t", make_table(seed=5))
        expected = reference.sql(QUERIES[1]).table.to_rows()
        assert db.sql(QUERIES[1]).table.to_rows() == expected
        db.maintain()
        assert db.sql(QUERIES[1]).table.to_rows() == expected
        db.close()
        reference.close()
