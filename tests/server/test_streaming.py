"""Streaming-protocol and HTTP-frontend tests: the hello version check,
chunk determinism, over-the-frame-cap results, one frame in one write
per small reply, the header / chunks / trailer of a larger one,
backpressure and the mid-stream error trailer, mid-stream disconnects
(no cache publish), request validation, and the HTTP endpoints sharing
one recycler with TCP."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64, STRING, Schema
from repro.errors import (QueryCancelled, QueryTimeout, ServerError,
                          ServerUnavailable, SqlError)
from repro.server import (HttpClient, HttpServer, MAX_FRAME_BYTES,
                          PROTOCOL_VERSION, ProtocolError, ReproServer,
                          ServerClient, StreamingResult)
from repro.server import client as client_module
from repro.server.protocol import (FRAMES_MEDIA_TYPE, decode_columnar_chunk,
                                   decode_frame, encode_frame,
                                   encode_result_chunk, header_types,
                                   iter_columnar_chunks, iter_result_chunks,
                                   read_frame, write_frame)

from test_server import QUERY, db, wait_for  # noqa: F401  (shared fixture)

# a result comfortably over the 64 MB frame cap as JSON (8 int64 columns
# of ~18-digit values encode to ~150 JSON bytes per row; 28 MB columnar).
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


def wire_rows(table):
    return [tuple(v.item() if hasattr(v, "item") else v for v in row)
            for row in table.to_rows()]


def record_writes(server):
    """Make ``server`` log every ``write`` its connections' transports
    receive; returns the log (one ``bytes`` per write)."""
    writes = []
    make_connection = server._make_connection

    def recording():
        connection = make_connection()
        made = connection.connection_made

        def logging_made(transport):
            write = transport.write

            def logged(data):
                writes.append(bytes(data))
                write(data)

            transport.write = logged
            made(transport)

        connection.connection_made = logging_made
        return connection

    server._make_connection = recording
    return writes


class TestHello:
    def test_client_says_hello(self, db):  # noqa: F811
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                assert client.protocol_version == PROTOCOL_VERSION
                assert client.server_limits["chunk_rows"] > 0
                assert client.server_limits["max_frame_bytes"] \
                    == MAX_FRAME_BYTES

    def test_version_3_is_refused_typed(self, db):  # noqa: F811
        """A client of the self-describing-chunk protocol learns at
        hello that this server answers in frames it cannot read."""
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                with pytest.raises(ProtocolError,
                                   match="speaks protocol version 4,"
                                         " not 3"):
                    client._request({"op": "hello", "version": 3})
                assert client.query(QUERY).num_rows == 8

    def test_other_versions_are_refused_typed(self, db):  # noqa: F811
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                for version in (1, 2, 3, 5, 99, "4", True, None):
                    with pytest.raises(ProtocolError, match="version"):
                        client._request({"op": "hello",
                                         "version": version})
                # a refusal is an answer, not a hang-up
                assert client.ping()

    def test_hello_is_optional(self, db):  # noqa: F811
        """There is one reply path: a client that skips the handshake
        gets the same stream."""
        with ReproServer(db) as server:
            with socket.create_connection(server.address) as sock:
                write_frame(sock, {"op": "query", "sql": QUERY})
                reader = sock.makefile("rb")
                reply = read_frame(reader.read)
        assert reply["kind"] == "result"
        assert len(reply["data"]) == reply["rows"] == 8


class TestChunkDeterminism:
    def test_rows_identical_across_chunk_boundaries(self, db):  # noqa: F811
        """Chunking is an encoding detail: whatever the chunk size,
        reassembled rows match the in-process result exactly."""
        expected = db.sql(QUERY).table
        with ReproServer(db, chunk_rows=3) as server:
            with ServerClient(*server.address) as client:
                chunked = client.query(QUERY)
                with client.execute_stream(QUERY) as stream:
                    streamed = list(stream)
        assert chunked.chunks == -(-expected.num_rows // 3)
        assert chunked.rows == wire_rows(expected)
        assert chunked.columns == list(expected.schema.names)
        assert chunked.types == [t.name for t in expected.schema.types]
        assert streamed == chunked.rows

    def test_stream_header_carries_schema_and_rowcount(self, db):  # noqa: F811
        expected = db.sql(QUERY).table
        with ReproServer(db, chunk_rows=2) as server:
            with ServerClient(*server.address) as client:
                with client.execute_stream(QUERY) as stream:
                    assert stream.columns == list(expected.schema.names)
                    assert stream.rowcount == expected.num_rows
                    assert list(stream) == wire_rows(expected)

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

    def test_iter_columnar_chunks_bounds(self):
        table = Table(Schema(["a", "s"], [INT64, STRING]),
                      {"a": np.arange(100, dtype=np.int64),
                       "s": np.array(["x" * (i % 40) for i in range(100)],
                                     dtype=object)})
        chunks = list(iter_columnar_chunks(table, chunk_rows=7,
                                           chunk_bytes=1 << 20))
        assert all(count <= 7 for _, count in chunks)
        assert [row for payload, _ in chunks
                for row in decode_columnar_chunk(payload, [INT64, STRING])] \
            == wire_rows(table)
        # the byte bound cuts where the rows are wide, never below a row
        bounded = list(iter_columnar_chunks(table, chunk_rows=100,
                                            chunk_bytes=600))
        assert sum(count for _, count in bounded) == 100
        assert all(len(payload) <= 600 or count == 1
                   for payload, count in bounded)
        assert len(bounded) > 1
        tiny = list(iter_columnar_chunks(table, chunk_rows=100,
                                         chunk_bytes=1))
        assert all(count == 1 for _, count in tiny)

    def test_both_encodings_yield_tuples(self):
        """Rows reach the caller as tuples whichever way their chunk
        travelled; a columnar chunk's are the decoder's own tuples, not
        copies made row by row."""
        table = Table(Schema(["a", "s"], [INT64, STRING]),
                      {"a": np.arange(5, dtype=np.int64),
                       "s": np.array(list("vwxyz"), dtype=object)})
        (columnar, _), = iter_columnar_chunks(table)
        (encoded,) = iter_result_chunks(table)
        json_frame = decode_frame(encode_result_chunk(1, 0, encoded))
        columnar_frame = decode_frame(columnar, [INT64, STRING])
        assert type(json_frame["rows"][0]) is list
        for frame in (json_frame, columnar_frame):
            frames = iter([frame, {"ok": True, "kind": "result_end",
                                   "stream": 1, "chunks": 1, "rows": 5}])
            stream = StreamingResult(
                {"ok": True, "kind": "result_header", "stream": 1,
                 "columns": ["a", "s"], "types": ["INT64", "STRING"],
                 "rowcount": 5},
                lambda types: next(frames), lambda: None)
            rows = list(stream)
            assert rows == wire_rows(table)
            assert all(type(row) is tuple for row in rows)
        assert all(got is sent for got, sent
                   in zip(rows, columnar_frame["rows"]))

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
            lambda types: next(frames), lambda: None)
        with pytest.raises(ServerError, match="truncated"):
            list(stream)

    def test_a_chunk_needs_its_stream_header(self, db):  # noqa: F811
        """A columnar chunk carries no schema: read outside a stream it
        is refused typed, read with the header's types it decodes."""
        table = db.sql(QUERY).table
        (payload, count), = iter_columnar_chunks(table)
        with pytest.raises(ProtocolError, match="no stream header"):
            decode_frame(payload)
        types = header_types({"columns": list(table.schema.names),
                              "types": [t.name for t
                                        in table.schema.types]})
        assert decode_frame(payload, types)["rows"] == wire_rows(table)


class TestLargeResults:
    """Results beyond the 64 MB frame cap stream with bounded frames."""

    def test_big_result_streams(self, big_db):
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


def count_frame_reads(monkeypatch) -> list:
    """Log the kind of every frame a client reads."""
    kinds = []
    read = client_module.read_frame

    def counted(*args):
        frame = read(*args)
        kinds.append(frame.get("kind"))
        return frame

    monkeypatch.setattr(client_module, "read_frame", counted)
    return kinds


class TestOneWrite:
    """A reply whose rows fit in one chunk is one ``result`` frame,
    written once and read once; a larger one is a header, chunks and a
    trailer whose totals the client checks."""

    def test_tcp_single_chunk_reply_is_one_frame(self, db,  # noqa: F811
                                                 monkeypatch):
        with ReproServer(db) as server:
            writes = record_writes(server)
            with ServerClient(*server.address) as client:
                del writes[:]  # the hello reply
                reads = count_frame_reads(monkeypatch)
                result = client.query(QUERY)
        assert result.chunks == 1
        assert reads == ["result"]
        assert len(writes) == 1
        frames = iter(writes[0])
        read = lambda n: bytes(next(frames) for _ in range(n))  # noqa: E731
        reply = read_frame(read)
        assert next(frames, None) is None  # nothing after the frame
        assert (reply["kind"], reply["chunks"], reply["rows"],
                reply["rowcount"]) == ("result", 1, 8, 8)
        assert reply["data"] == result.rows
        assert reply["stats"] == result.stats

    @pytest.mark.parametrize("accept", [FRAMES_MEDIA_TYPE, "*/*"])
    def test_http_single_chunk_reply_is_one_write(self, db, accept):  # noqa: F811
        with HttpServer(db) as server:
            writes = record_writes(server)
            conn = http.client.HTTPConnection(*server.address, timeout=5.0)
            conn.request("POST", "/v1/query",
                         body=json.dumps({"sql": QUERY}).encode(),
                         headers={"Accept": accept})
            response = conn.getresponse()
            body = response.read()
            conn.close()
        assert response.status == 200
        assert len(writes) == 1
        assert writes[0].startswith(b"HTTP/1.1 200 OK\r\n")
        assert writes[0].endswith(b"0\r\n\r\n")
        if accept == FRAMES_MEDIA_TYPE:
            frames = iter(body)
            read = lambda n: bytes(next(frames, 0)  # noqa: E731
                                   for _ in range(n))
            assert read_frame(read)["kind"] == "result"
            assert next(frames, None) is None
        else:
            assert [json.loads(line)["kind"] for line in body.splitlines()] \
                == ["result_header", "result_chunk", "result_end"]

    def test_http_client_reads_one_frame(self, db, monkeypatch):  # noqa: F811
        with HttpServer(db) as server:
            with HttpClient(*server.address) as client:
                reads = count_frame_reads(monkeypatch)
                result = client.query(QUERY)
                assert (result.num_rows, result.chunks) == (8, 1)
                assert reads == ["result"]
                # the body was read to its end: the connection is reused
                assert client.query(QUERY).rows == result.rows

    def test_an_empty_result_is_one_write_without_chunks(self, db,  # noqa: F811
                                                         monkeypatch):
        with ReproServer(db) as server:
            writes = record_writes(server)
            with ServerClient(*server.address) as client:
                del writes[:]
                reads = count_frame_reads(monkeypatch)
                result = client.query("SELECT g FROM t WHERE g < 0")
        assert (result.rows, result.chunks) == ([], 0)
        assert reads == ["result"]
        assert len(writes) == 1

    def test_every_further_chunk_is_its_own_write(self, db,  # noqa: F811
                                                  monkeypatch):
        """Beyond the first, each chunk waits for the previous drain:
        n chunks are n writes (the last one carries the trailer), and
        the client reads the header, every chunk and the trailer."""
        with ReproServer(db, chunk_rows=3) as server:
            writes = record_writes(server)
            with ServerClient(*server.address) as client:
                del writes[:]
                reads = count_frame_reads(monkeypatch)
                result = client.query(QUERY)
        assert result.chunks == 3
        assert len(writes) == 3
        assert reads == ["result_header"] + ["result_chunk"] * 3 \
            + ["result_end"]
        frames = iter(b"".join(writes))
        read = lambda n: bytes(next(frames) for _ in range(n))  # noqa: E731
        header = read_frame(read)
        types = header_types(header)
        chunks = [read_frame(read, types) for _ in range(3)]
        end = read_frame(read)
        assert [len(chunk["rows"]) for chunk in chunks] == [3, 3, 2]
        assert (end["kind"], end["chunks"], end["rows"]) \
            == ("result_end", 3, 8)

    def test_a_short_trailer_is_refused(self):
        """The totals of a multi-chunk stream are checked: a trailer
        that counts other chunks or rows than arrived raises."""
        for totals in ({"chunks": 1, "rows": 3}, {"chunks": 2, "rows": 2}):
            frames = iter([{"kind": "result_chunk", "rows": [(1,)]},
                           {"kind": "result_chunk", "rows": [(2,), (3,)]},
                           dict(totals, ok=True, kind="result_end")])
            stream = StreamingResult(
                {"ok": True, "kind": "result_header", "stream": 1,
                 "columns": ["a"], "types": ["INT64"], "rowcount": 3},
                lambda types: next(frames), lambda: None)
            with pytest.raises(ServerError, match="truncated"):
                list(stream)

    def test_a_result_frame_with_wrong_totals_is_refused(self):
        for totals in ({"chunks": 0, "rows": 2}, {"chunks": 1, "rows": 3}):
            stream = StreamingResult(
                dict(totals, ok=True, kind="result", stream=1,
                     columns=["a"], types=["INT64"], rowcount=2,
                     data=[(1,), (2,)]),
                lambda types: pytest.fail("a result frame is whole"),
                lambda: None)
            with pytest.raises(ServerError, match="truncated"):
                list(stream)


class TestBackpressure:
    def test_slow_consumer_throttles_and_deadline_ends_stream(self, big_db):
        """While the client does not read, ``drain()`` holds the
        producer back (it does not encode the result into a server-side
        buffer); a deadline that expires meanwhile ends the stream with
        a typed ``error`` trailer, and the connection stays usable."""
        total_chunks = -(-BIG_ROWS // 8192)
        with ReproServer(big_db) as server:
            writes = record_writes(server)
            with ServerClient(*server.address) as client:
                client.query(BIG_QUERY)  # warm: the next run is quick
                del writes[:]
                stream = client.execute_stream(BIG_QUERY, timeout=1.0)
                time.sleep(1.2)  # not reading; the deadline passes
                assert 1 <= len(writes) < total_chunks // 2
                with pytest.raises(QueryTimeout, match="stream deadline"):
                    list(stream)
                assert server.stats()["stream_aborted"] == 1
                assert client.ping()


class TestCancelMidStream:
    def test_cancel_between_chunks_ends_with_the_error_trailer(self,
                                                               big_db):
        """A session cancelled while its multi-chunk reply waits on a
        slow reader ends the stream with a typed ``error`` trailer
        before the next chunk; the connection stays usable."""
        with ReproServer(big_db) as server:
            writes = record_writes(server)
            with ServerClient(*server.address) as client:
                client.query(BIG_QUERY)  # warm: the next run is quick
                del writes[:]
                stream = client.execute_stream(BIG_QUERY)
                assert wait_for(lambda: len(writes) >= 1)
                connection, = server._connections
                connection.session.cancel()
                rows = 0
                with pytest.raises(QueryCancelled, match="stream cancelled"):
                    for _ in stream:
                        rows += 1
                assert 0 < rows < BIG_ROWS
                assert wait_for(
                    lambda: server.stats()["stream_aborted"] == 1)
                assert client.ping()


class TestRequestValidation:
    """A duration that is not a finite number >= 0 is refused typed on
    both frontends; the connection stays usable."""

    BAD = ["soon", True, -1, float("nan"), float("inf"), [1], {}]

    def test_tcp_bad_timeout_and_deadline(self, db):  # noqa: F811
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                for bad in self.BAD:
                    with pytest.raises(ProtocolError, match="timeout"):
                        client.query(QUERY, timeout=bad)
                    with pytest.raises(ProtocolError, match="deadline"):
                        client.configure(deadline=bad)
                assert client.query(QUERY, timeout=5).num_rows == 8
                assert server.stats()["active_connections"] == 1

    def test_http_bad_timeout_is_400(self, db):  # noqa: F811
        with HttpServer(db) as server:
            conn = http.client.HTTPConnection(*server.address, timeout=5.0)
            for bad in self.BAD:
                conn.request("POST", "/v1/query", body=json.dumps(
                    {"sql": QUERY, "timeout": bad}).encode())
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 400
                assert payload["error"]["type"] == "ProtocolError"
                assert "timeout" in payload["error"]["message"]
            conn.close()
            with HttpClient(*server.address) as client:
                with pytest.raises(ProtocolError):
                    client.query(QUERY, timeout="soon")
                assert client.query(QUERY, timeout=5.0).num_rows == 8

    def test_unread_keys_are_ignored(self, db):  # noqa: F811
        """A key neither frontend reads (``tenant``, say, from a client
        of an older server) changes nothing about the reply."""
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                assert client._request({"op": "configure",
                                        "tenant": "a"})["ok"]
                assert client.query(QUERY).num_rows == 8
        with HttpServer(db) as server:
            conn = http.client.HTTPConnection(*server.address, timeout=5.0)
            conn.request("POST", "/v1/query", body=json.dumps(
                {"sql": QUERY, "tenant": "a"}).encode())
            response = conn.getresponse()
            lines = [json.loads(line)
                     for line in response.read().splitlines()]
            conn.close()
            assert response.status == 200
            assert lines[-1]["kind"] == "result_end"
            assert lines[-1]["rows"] == 8


class TestHttpClientTruncation:
    """The server vanishing after the header surfaces as
    ServerUnavailable, however http.client reports the short body."""

    @staticmethod
    def serve_once(reply: bytes):
        """A one-connection HTTP 'server' that reads a request, sends
        ``reply`` and shuts the socket."""
        listener = socket.create_server(("127.0.0.1", 0))

        def run():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(reply)
                conn.shutdown(socket.SHUT_RDWR)
            listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return listener.getsockname(), thread

    HEAD = (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-repro-frames\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n")

    @staticmethod
    def http_chunk(data: bytes) -> bytes:
        return b"%x\r\n%b\r\n" % (len(data), data)

    @pytest.mark.parametrize("cut", ["between_chunks", "inside_chunk",
                                     "inside_frame"])
    def test_truncated_body_raises_server_unavailable(self, cut):
        header = encode_frame({
            "ok": True, "kind": "result_header", "stream": 1,
            "columns": ["a"], "types": ["INT64"], "rowcount": 2})
        chunk = encode_frame({"kind": "result_chunk", "rows": [[1], [2]]})
        reply = self.HEAD + self.http_chunk(header) + {
            "between_chunks": b"",
            "inside_chunk": self.http_chunk(chunk)[:-12],
            # a whole HTTP chunk that holds only half the frame, then
            # a clean end of the body
            "inside_frame": self.http_chunk(chunk[:10]) + b"0\r\n\r\n",
        }[cut]
        address, thread = self.serve_once(reply)
        client = HttpClient(*address, timeout=5.0)
        stream = client.execute_stream("SELECT 1 AS a")
        assert stream.rowcount == 2
        with pytest.raises(ServerUnavailable, match="lost"):
            list(stream)
        thread.join(5.0)
        assert not thread.is_alive()
        # the connection was closed, not left half-read
        assert client._conn.sock is None
        client.close()


class TestDisconnects:
    def test_disconnect_during_execution_cancels_and_never_publishes(
            self, db):  # noqa: F811
        """A v2 client that vanishes mid-query aborts the producer at
        the next batch boundary, and nothing lands in the cache."""
        from repro.server.protocol import write_frame
        # an aggregate over a costly leaf is a shape the recycler
        # publishes when it completes; the aborted one's leaf holds it
        # mid-execution until the server, having seen the hang-up,
        # cancels it, so no engine is fast enough to finish first
        rng = np.random.default_rng(3)
        n = 200_000
        rows = Table(Schema(["g", "v"], [INT64, FLOAT64]),
                     {"g": rng.integers(0, 64, n),
                      "v": rng.uniform(0, 1, n)})
        hung_up = threading.Event()

        def held() -> Table:
            hung_up.wait(30.0)
            return rows

        # disjoint functions, so the control's published entries cannot
        # serve the aborted shape
        for name, function in (("free", lambda: rows), ("held", held)):
            db.register_function(name, function, rows.schema,
                                 invocation_cost=50_000.0)
        cancel = db.recycler.cancel

        def cancelled(token):
            # a session's cancel trips the query's token, then this
            cancel(token)
            hung_up.set()

        db.recycler.cancel = cancelled
        control = ("SELECT g, sum(v) AS s FROM free()"
                   " WHERE v > 0.01 GROUP BY g")
        aborted = ("SELECT g, avg(v) AS a FROM held()"
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
                assert wait_for(lambda: server.stats()["in_flight"] == 1)
            assert wait_for(
                lambda: server.stats()["cancelled"] >= 1)
            assert wait_for(lambda: server.stats()["in_flight"] == 0)
        assert hung_up.is_set()
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

    def test_accept_header_picks_the_encoding(self, db):  # noqa: F811
        """Frames for a client that asks for them, NDJSON lines (the
        same header and trailer, rows as JSON) for everyone else."""
        expected = wire_rows(db.sql(QUERY).table)
        body = json.dumps({"sql": QUERY}).encode()
        with HttpServer(db, chunk_rows=3) as server:
            conn = http.client.HTTPConnection(*server.address, timeout=5.0)
            conn.request("POST", "/v1/query", body=body)
            response = conn.getresponse()
            assert response.getheader("Content-Type") \
                == "application/x-ndjson"
            lines = [json.loads(line)
                     for line in response.read().splitlines()]
            conn.request("POST", "/v1/query", body=body,
                         headers={"Accept": FRAMES_MEDIA_TYPE})
            response = conn.getresponse()
            assert response.getheader("Content-Type") == FRAMES_MEDIA_TYPE
            frames = [read_frame(response.read)]
            types = header_types(frames[0])
            while frames[-1]["kind"] != "result_end":
                frames.append(read_frame(response.read, types))
            assert response.read() == b""
            conn.close()
        for messages in (lines, frames):
            assert [m["kind"] for m in messages] == [
                "result_header", "result_chunk", "result_chunk",
                "result_chunk", "result_end"]
            assert [tuple(row) for m in messages[1:-1]
                    for row in m["rows"]] == expected
        assert [(m["stream"], m["seq"]) for m in lines[1:-1]] \
            == [(lines[0]["stream"], seq) for seq in range(3)]
        assert all(lines[0][key] == frames[0][key]
                   for key in ("columns", "types", "rowcount"))

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


def http_exchange(address, request: bytes, *, half_close: bool = False
                  ) -> bytes:
    """Send ``request`` on a fresh connection (then shut down the
    sending side, if ``half_close``) and read until the server closes
    it."""
    with socket.create_connection(address) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        sock.settimeout(5.0)
        received = b""
        while True:
            try:
                data = sock.recv(65536)
            except ConnectionError:
                break
            if not data:
                break
            received += data
    return received


class TestHttpFraming:
    """How the HTTP frontend reads requests: limits are refused with a
    400 before the server buffers past them, and keep-alive and
    ``Connection: close`` are honoured."""

    @staticmethod
    def status_of(reply: bytes) -> int:
        return int(reply.split(b" ", 2)[1])

    def test_a_malformed_request_line_is_400(self, db):  # noqa: F811
        with HttpServer(db) as server:
            for line in (b"GARBAGE\r\n\r\n", b"GET /healthz\r\n\r\n",
                         b"GET /healthz FTP/1.0\r\n\r\n"):
                reply = http_exchange(server.address, line)
                assert self.status_of(reply) == 400
                assert b"malformed request line" in reply

    def test_an_oversized_header_block_is_400(self, db):  # noqa: F811
        """65 header lines of 1 KiB and no blank line: the server
        answers once the block passes 64 KiB, without waiting for its
        end."""
        lines = b"".join(b"X-Pad-%04d: %s\r\n" % (i, b"p" * 1010)
                         for i in range(65))
        assert all(len(line) == 1024 for line in lines.splitlines(True))
        with HttpServer(db) as server:
            reply = http_exchange(
                server.address, b"GET /healthz HTTP/1.1\r\n" + lines)
        assert self.status_of(reply) == 400
        assert b"header block too large" in reply

    @pytest.mark.parametrize("length", [b"-1", b"ten", b"1.5",
                                        str(MAX_FRAME_BYTES + 1).encode()])
    def test_a_bad_content_length_is_400(self, db, length):  # noqa: F811
        with HttpServer(db) as server:
            reply = http_exchange(
                server.address, b"POST /v1/query HTTP/1.1\r\n"
                b"Content-Length: %b\r\n\r\n" % length)
        assert self.status_of(reply) == 400
        assert b"Content-Length" in reply

    def test_eof_inside_the_head_is_400(self, db):  # noqa: F811
        """A head cut short by the client's EOF is answered 400 on the
        half-closed connection, which then closes."""
        with HttpServer(db) as server:
            for head, reason in (
                    (b"POST /v1/q", b"malformed request line"),
                    (b"POST /v1/query HTTP/1.1\r\nContent-Le",
                     b"malformed header line"),
                    (b"POST /v1/query HTTP/1.1\r\nContent-Length: 3",
                     b"truncated header block"),
                    (b"POST /v1/query HTTP/1.1\r\nHost: x\r\n",
                     b"truncated header block")):
                reply = http_exchange(server.address, head,
                                      half_close=True)
                assert self.status_of(reply) == 400
                assert reason in reply
                assert b"Connection: close" in reply

    def test_eof_inside_the_body_closes_without_a_reply(self, db):  # noqa: F811
        with HttpServer(db) as server:
            assert http_exchange(
                server.address, b"POST /v1/query HTTP/1.1\r\n"
                b"Content-Length: 50\r\n\r\n{\"sql\"", half_close=True) \
                == b""
            # an EOF between requests is a clean close, no reply either
            assert http_exchange(server.address, b"", half_close=True) \
                == b""
            assert server.stats()["errors"] == 0

    def test_keep_alive_serves_requests_in_turn(self, db):  # noqa: F811
        with HttpServer(db) as server:
            conn = http.client.HTTPConnection(*server.address, timeout=5.0)
            for _ in range(2):
                conn.request("POST", "/v1/query",
                             body=json.dumps({"sql": QUERY}).encode())
                response = conn.getresponse()
                lines = response.read().splitlines()
                assert response.status == 200
                assert json.loads(lines[-1])["rows"] == 8
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert json.loads(response.read())["ok"]
            conn.close()
            assert server.stats()["connections_total"] == 1

    def test_connection_close_is_honoured(self, db):  # noqa: F811
        body = json.dumps({"sql": QUERY}).encode()
        with HttpServer(db) as server:
            # the server closes after the reply: reading to EOF ends
            reply = http_exchange(
                server.address, b"POST /v1/query HTTP/1.1\r\n"
                b"Connection: close\r\nContent-Length: %d\r\n\r\n%b"
                % (len(body), body))
        assert self.status_of(reply) == 200
        assert reply.count(b"HTTP/1.1 ") == 1
        assert reply.endswith(b"0\r\n\r\n")


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
