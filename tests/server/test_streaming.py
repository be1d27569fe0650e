"""Streaming-protocol and HTTP-frontend tests: v2 negotiation, chunk
determinism, over-the-frame-cap results, mid-stream disconnects (no
cache publish), and the HTTP endpoints sharing one recycler with TCP."""

from __future__ import annotations

import http.client
import json
import time

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64, Schema
from repro.errors import ResultTooLarge, ServerError, SqlError
from repro.server import (HttpClient, HttpServer, MAX_FRAME_BYTES,
                          PROTOCOL_VERSION, ReproServer, ServerClient,
                          StreamingResult)
from repro.server.protocol import iter_result_chunks

from test_server import QUERY, db  # noqa: F401  (shared fixture)

# a result comfortably over the 64 MB v1 frame cap: 8 int64 columns of
# ~18-digit values encode to ~150 JSON bytes per row.
BIG_ROWS = 460_000
BIG_QUERY = "SELECT * FROM big"


@pytest.fixture(scope="module")
def big_db():
    db = Database(RecyclerConfig(mode="spec"))
    names = [f"c{i}" for i in range(8)]
    db.register_table("big", Table(
        Schema(names, [INT64] * 8),
        {name: np.arange(BIG_ROWS, dtype=np.int64) * 1_234_567_890_123
         + i for i, name in enumerate(names)}))
    yield db
    db.close()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestNegotiation:
    def test_default_client_negotiates_v2(self, db):  # noqa: F811
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                assert client.protocol_version == PROTOCOL_VERSION
                assert client.server_limits["chunk_rows"] > 0
                assert client.server_limits["max_frame_bytes"] \
                    == MAX_FRAME_BYTES

    def test_v1_client_stays_v1(self, db):  # noqa: F811
        with ReproServer(db) as server:
            with ServerClient(*server.address, protocol=1) as client:
                assert client.protocol_version == 1
                result = client.query(QUERY)
                assert result.chunks == 0
                assert result.num_rows > 0
                with pytest.raises(ServerError):
                    client.execute_stream(QUERY)

    def test_server_caps_requested_version(self, db):  # noqa: F811
        from repro.server.protocol import read_frame, write_frame
        with ReproServer(db) as server:
            with ServerClient(*server.address, protocol=1) as client:
                write_frame(client._sock,
                            {"op": "hello", "version": 99})
                reply = read_frame(client._sock)
                assert reply["version"] == PROTOCOL_VERSION


class TestChunkDeterminism:
    def test_v2_rows_identical_to_v1_across_boundaries(self, db):  # noqa: F811
        """Chunking is an encoding detail: whatever the chunk size,
        reassembled rows match the v1 single frame exactly."""
        with ReproServer(db, chunk_rows=3) as server:
            with ServerClient(*server.address, protocol=1) as v1:
                baseline = v1.query(QUERY)
            with ServerClient(*server.address) as v2:
                chunked = v2.query(QUERY)
                with v2.execute_stream(QUERY) as stream:
                    streamed = list(stream)
        assert baseline.chunks == 0
        assert chunked.chunks == -(-baseline.num_rows // 3)
        assert chunked.rows == baseline.rows
        assert chunked.columns == baseline.columns
        assert chunked.types == baseline.types
        assert streamed == baseline.rows

    def test_stream_header_carries_schema_and_rowcount(self, db):  # noqa: F811
        expected = db.sql(QUERY).table
        with ReproServer(db, chunk_rows=2) as server:
            with ServerClient(*server.address) as client:
                with client.execute_stream(QUERY) as stream:
                    assert stream.columns == list(expected.schema.names)
                    assert stream.rowcount == expected.num_rows
                    assert list(stream) \
                        == [tuple(v.item() for v in row)
                            for row in expected.to_rows()]

    def test_iter_result_chunks_bounds(self):
        table = Table(Schema(["a"], [INT64]),
                      {"a": np.arange(100, dtype=np.int64)})
        chunks = list(iter_result_chunks(table, chunk_rows=7,
                                         chunk_bytes=1 << 20))
        assert all(len(c) <= 7 for c in chunks)
        assert sum(len(c) for c in chunks) == 100
        # byte bound: single rows always travel, so every chunk is
        # non-empty even with an absurdly small byte budget
        tiny = list(iter_result_chunks(table, chunk_rows=100,
                                       chunk_bytes=1))
        assert all(len(c) == 1 for c in tiny)

    def test_truncated_stream_is_detected(self):
        frames = iter([
            {"kind": "result_chunk", "stream": 1, "seq": 0,
             "rows": [[1], [2]]},
            {"ok": True, "kind": "result_end", "stream": 1,
             "chunks": 2, "rows": 4},
        ])
        stream = StreamingResult(
            {"ok": True, "kind": "result_header", "stream": 1,
             "columns": ["a"], "types": ["INT64"], "rowcount": 4},
            lambda: next(frames), lambda: None)
        with pytest.raises(ServerError, match="truncated"):
            list(stream)


class TestLargeResults:
    """The point of v2: results beyond the 64 MB frame cap stream with
    bounded frames; v1 fails them with a typed error."""

    def test_big_result_streams_on_v2(self, big_db):
        with ReproServer(big_db) as server:
            with ServerClient(*server.address) as client:
                result = client.query(BIG_QUERY)
        assert result.num_rows == BIG_ROWS
        # bounded frames: far more than one chunk was needed
        assert result.chunks > 10
        assert result.rows[0] == tuple(
            i for i in range(8))
        assert result.rows[-1][0] \
            == (BIG_ROWS - 1) * 1_234_567_890_123

    def test_big_result_fails_typed_on_v1(self, big_db):
        with ReproServer(big_db) as server:
            with ServerClient(*server.address, protocol=1) as client:
                with pytest.raises(ResultTooLarge):
                    client.query(BIG_QUERY)
                # the connection survives the typed failure
                assert client.ping()

    def test_big_result_streams_over_http(self, big_db):
        with HttpServer(big_db) as server:
            with HttpClient(*server.address) as client:
                with client.execute_stream(BIG_QUERY) as stream:
                    assert stream.rowcount == BIG_ROWS
                    count = 0
                    last = None
                    for row in stream:
                        count += 1
                        last = row
        assert count == BIG_ROWS
        assert last[0] == (BIG_ROWS - 1) * 1_234_567_890_123


class TestDisconnects:
    def test_disconnect_during_execution_cancels_and_never_publishes(
            self, db):  # noqa: F811
        """A v2 client that vanishes mid-query aborts the producer at
        the next batch boundary, and nothing lands in the cache."""
        from repro.server.protocol import write_frame
        # an aggregate over a few million rows runs long enough (and in
        # enough batches) to be cancelled mid-way, and its shape is one
        # the recycler publishes when it completes
        rng = np.random.default_rng(3)
        n = 2_000_000
        for name in ("wide", "wide2"):  # disjoint tables, so the
            # control's published entries cannot serve the aborted shape
            db.register_table(name, Table(
                Schema(["g", "v"], [INT64, FLOAT64]),
                {"g": rng.integers(0, 64, n),
                 "v": rng.uniform(0, 1, n)}))
        control = ("SELECT g, sum(v) AS s FROM wide"
                   " WHERE v > 0.01 GROUP BY g")
        aborted = ("SELECT g, avg(v) AS a FROM wide2"
                   " WHERE v > 0.02 GROUP BY g")
        with ReproServer(db) as server:
            # control: the same shape completed normally does publish
            # (so the num_reused == 0 assertion below is meaningful)
            with ServerClient(*server.address) as client:
                client.query(control)
            assert db.sql(control).record.num_reused >= 1
            # now vanish mid-execution of a fresh shape
            with ServerClient(*server.address) as client:
                write_frame(client._sock, {"op": "query",
                                           "sql": aborted})
                time.sleep(0.1)  # query is now executing
            assert wait_for(
                lambda: server.stats()["cancelled"] >= 1)
            assert wait_for(lambda: server.stats()["in_flight"] == 0)
        # the abandoned query published nothing: a rerun is cold
        assert db.sql(aborted).record.num_reused == 0

    def test_disconnect_mid_chunk_phase_counts_aborted(self, big_db):
        """Closing after the header, with most chunks unsent, stops the
        producer (socket buffers absorb only the first few MB)."""
        with ReproServer(big_db) as server:
            client = ServerClient(*server.address)
            stream = client.execute_stream(BIG_QUERY)
            assert stream.rowcount == BIG_ROWS
            client.close()
            assert wait_for(
                lambda: server.stats()["stream_aborted"] >= 1,
                timeout=15.0)
            assert wait_for(lambda: server.stats()["in_flight"] == 0,
                            timeout=15.0)


class TestHttpEndpoints:
    def test_healthz_metrics_and_query(self, db):  # noqa: F811
        with HttpServer(db) as server:
            with HttpClient(*server.address) as client:
                health = client.healthz()
                assert health["ok"] and not health["draining"]
                result = client.query(QUERY)
                assert result.num_rows > 0
                assert result.chunks >= 1
                metrics = client.metrics()
                assert "http" in metrics["service"]["frontends"]
                assert metrics["service"]["frontends"]["http"][
                    "queries"] == 1
                # the warm-path counters travel with the summary
                assert metrics["service"]["statement_cache"][
                    "misses"] == 1
                assert metrics["optimizer"]["root_hits"] == 0

    def test_bad_sql_maps_to_400_and_typed_error(self, db):  # noqa: F811
        with HttpServer(db) as server:
            with HttpClient(*server.address) as client:
                with pytest.raises(SqlError):
                    client.query("SELEC oops")
                # the connection survives a failed query
                assert client.healthz()["ok"]

    def test_malformed_body_and_unknown_path(self, db):  # noqa: F811
        with HttpServer(db) as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=5.0)
            conn.request("POST", "/v1/query", body=b"not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            payload = json.loads(response.read())
            assert payload["error"]["type"] == "ProtocolError"
            conn.request("GET", "/nowhere")
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            conn.request("PUT", "/healthz")
            response = conn.getresponse()
            assert response.status == 405
            response.read()
            conn.close()

    def test_healthz_reports_draining(self, db):  # noqa: F811
        with HttpServer(db) as server:
            with HttpClient(*server.address) as client:
                server._draining = True
                try:
                    health = client.healthz()
                finally:
                    server._draining = False
                assert health["draining"] and not health["ok"]

    def test_http_and_tcp_share_the_recycler(self, db):  # noqa: F811
        """A query warmed through one frontend is a cache hit through
        the other — one recycler behind both ports."""
        query = "SELECT g, sum(v) AS warm FROM t GROUP BY g"
        with ReproServer(db) as tcp_server, HttpServer(db) as http_server:
            with ServerClient(*tcp_server.address) as tcp:
                cold = tcp.query(query)
            with HttpClient(*http_server.address) as http_client:
                warm = http_client.query(query)
            assert warm.stats["num_inserted"] == 0
            assert warm.stats["num_reused"] >= 1
            assert warm.rows == cold.rows

    def test_http_timeout_maps_to_504(self, db):  # noqa: F811
        with HttpServer(db) as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=30.0)
            body = json.dumps({"sql": "SELECT x FROM slow_rows(2.0, 900)",
                               "timeout": 0.1}).encode()
            conn.request("POST", "/v1/query", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 504
            payload = json.loads(response.read())
            assert payload["error"]["type"] == "QueryTimeout"
            conn.close()


class TestServiceCounters:
    def test_stream_counters_accumulate(self, db):  # noqa: F811
        with ReproServer(db, chunk_rows=2) as server:
            with ServerClient(*server.address) as client:
                client.query(QUERY)
                client.query(QUERY)
            # the trailer reaches the client a beat before the server
            # coroutine resumes to bump its counters
            assert wait_for(lambda: server.stats()["streams"] == 2)
            stats = server.stats()
            assert stats["stream_chunks"] >= 2
        summary = db.summary()["service"]["frontends"]["server"]
        assert summary["streams"] == 2
        assert summary["stream_chunks"] == stats["stream_chunks"]
