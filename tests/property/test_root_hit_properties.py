"""Property: no interleaving of repeats, appends, schema evolution,
maintenance and cache flushes makes the warm statement path (statement
cache + root-hit fast path) observable — rows, query records and the
whole recycler state equal those of a twin that re-plans every
statement and always takes the slow path (``tests/twin_replay.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Database, RecyclerConfig
from repro.columnar import Catalog, FLOAT64, INT64, Table
from twin_replay import Twins

STATEMENTS = [
    "SELECT * FROM t WHERE k < 20",
    "SELECT g, count(*) AS n, sum(v) AS s FROM t GROUP BY g",
    "SELECT g, max(v) AS hi FROM t WHERE k >= 100 GROUP BY g",
    "SELECT k, v FROM t WHERE v > 0.9 ORDER BY v DESC LIMIT 5",
    "SELECT a.g, count(*) AS n FROM t a, t b"
    " WHERE a.k = b.k AND b.v > 0.5 GROUP BY a.g",
    "SELECT g, count(*) AS n FROM t WHERE v > 0.25 GROUP BY g",
]


def build() -> Database:
    rng = np.random.default_rng(17)
    rows = 1500
    catalog = Catalog()
    catalog.register_table("t", Table(
        Table.from_rows(["k", "g", "v"], [INT64, INT64, FLOAT64],
                        []).schema,
        {"k": np.arange(rows, dtype=np.int64),
         "g": rng.integers(0, 6, rows),
         "v": rng.uniform(0, 1, rows)}))
    # a cache a few results fill, so replacement runs; a short idle
    # horizon, so maintenance truncates mid-run
    return Database(RecyclerConfig(
        mode="spec", cache_capacity=48 * 1024,
        min_store_cost=0.0, speculation_min_cost=0.0,
        maintenance_interval_seconds=None,
        truncate_min_idle_events=6), catalog=catalog)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("sql"), st.integers(0, len(STATEMENTS) - 1)),
        st.tuples(st.just("sql"), st.integers(0, len(STATEMENTS) - 1)),
        st.tuples(st.just("append"), st.integers(1, 40)),
        st.tuples(st.just("add_column"), st.just(0)),
        st.tuples(st.just("maintain"), st.just(0)),
        st.tuples(st.just("flush"), st.just(0)),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_warm_path_is_unobservable(ops):
    twins = Twins(build)
    try:
        columns = 0
        for kind, arg in ops:
            if kind == "sql":
                twins.sql(STATEMENTS[arg])
            elif kind == "append":
                twins.apply(lambda db: db.append_rows(
                    "t", db.catalog.table("t").head(arg)))
            elif kind == "add_column":
                columns += 1
                twins.apply(lambda db: db.alter_table_add_column(
                    "t", f"extra{columns}", INT64, default=columns))
            elif kind == "maintain":
                twins.apply(lambda db: db.maintain())
            else:
                twins.apply(lambda db: db.flush_cache())
        twins.assert_same_state()
        assert twins.root_hits()[1] == 0
    finally:
        twins.close()
