"""Serving demo: one recycler, three frontends.

Builds a synthetic SkyServer database, queries it through the PEP 249
DB-API, then serves it over TCP and queries it again through the wire
client and the load generator — every frontend lands in the same
recycler, so whoever comes second is warm.

Run:  python examples/server_demo.py
"""

import repro.dbapi as dbapi
from repro import Database, RecyclerConfig
from repro.errors import QueryTimeout
from repro.harness.loadgen import LoadGenerator
from repro.server import ReproServer, ServerClient
from repro.workloads.skyserver import (build_catalog, generate_workload,
                                       primary_pattern)

# ----------------------------------------------------------------------
# 1. the database: synthetic SkyServer (photoobj + cone search)
# ----------------------------------------------------------------------
db = Database(RecyclerConfig(mode="spec"),
              catalog=build_catalog(num_rows=20000))
SKY = primary_pattern()  # the paper's most frequent query

# ----------------------------------------------------------------------
# 2. PEP 249: standard cursors over the shared execution core
# ----------------------------------------------------------------------
with dbapi.connect(database=db) as conn:
    cur = conn.cursor()
    cur.execute(SKY)
    print(f"DB-API (cold): {cur.rowcount} rows,"
          f" stored {cur.statistics['num_inserted']} graph nodes")

# ----------------------------------------------------------------------
# 3. TCP: the same database served with admission control
# ----------------------------------------------------------------------
with ReproServer(db, max_in_flight=8, max_queue=16) as server:
    host, port = server.address
    with ServerClient(host, port) as client:
        result = client.query(SKY)
        print(f"TCP    (warm): {result.num_rows} rows,"
              f" reused {result.stats['num_reused']},"
              f" inserted {result.stats['num_inserted']}")

        # deadlines are enforced server-side and re-raise typed here
        try:
            client.query(SKY, timeout=0.0)
        except QueryTimeout:
            print("TCP    (t/o) : deadline enforced on the server")

    # closed-loop load: 4 clients cycling the SkyServer query mix
    queries = [q.sql for q in generate_workload(20)]
    report = LoadGenerator(host, port, queries, clients=4,
                           duration=2.0, timeout=30.0).run()
    print(f"loadgen      : {report.format()}")
    print(f"server stats : {server.stats()}")

# every frontend's queries met in one service layer
print("service      :", db.summary()["service"]["frontends"].keys())
db.close()
