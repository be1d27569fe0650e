"""Serving-layer tests: admission control, deadlines, drain, and
cross-frontend recycling (DBAPI client and TCP client meeting in one
shared recycler)."""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

import repro.dbapi as dbapi
from repro import Database, RecyclerConfig, Table
from repro.columnar import FLOAT64, INT64, Schema
from repro.errors import (QueryTimeout, ServerOverloaded, ServerUnavailable)
from repro.server import HttpClient, HttpServer, ReproServer, ServerClient
from repro.server.base import PAUSE_READING_BYTES
from repro.server.protocol import (HEADER, MAX_FRAME_BYTES,
                                   PROTOCOL_VERSION, encode_frame,
                                   read_frame, write_frame)
from repro.workloads.skyserver import build_catalog, primary_pattern

SLOW_SCHEMA = Schema(["x"], [INT64])


def make_slow_fn(seconds: float):
    """A table function that takes real wall time — each distinct ``tag``
    is a distinct plan, so concurrent calls cannot dedupe or reuse."""

    def slow_rows(seconds_arg, tag) -> Table:
        time.sleep(float(seconds_arg) if seconds_arg else seconds)
        return Table.from_rows(["x"], [INT64], [(int(tag),)])

    return slow_rows


@pytest.fixture
def db():
    rng = np.random.default_rng(11)
    n = 4000
    db = Database(RecyclerConfig(mode="spec"))
    db.register_table("t", Table(
        Table.from_rows(["g", "v"], [INT64, FLOAT64], []).schema,
        {"g": rng.integers(0, 8, n), "v": rng.uniform(0, 1, n)}))
    db.register_function("slow_rows", make_slow_fn(0.2), SLOW_SCHEMA)
    yield db
    db.close()


QUERY = "SELECT g, sum(v) AS s FROM t GROUP BY g ORDER BY g"


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestProtocolBasics:
    def test_ping_stats_and_unknown_op(self, db):
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                assert client.ping()
                stats = client.stats()
                assert stats["server"]["active_connections"] == 1
                assert "frontends" in stats["service"]

    def test_connect_to_dead_server_raises(self, db):
        server = ReproServer(db)
        host, port = server.start()
        server.stop()
        with pytest.raises(ServerUnavailable):
            ServerClient(host, port, connect_timeout=0.5)

    def test_bad_sql_maps_to_typed_error(self, db):
        from repro.errors import SqlError
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                with pytest.raises(SqlError):
                    client.query("SELEC oops")
                # the connection survives a failed query
                assert client.ping()



def read_reply(sock: socket.socket) -> dict:
    """One reply frame from ``sock`` (a blocking socket)."""
    return read_frame(sock.makefile("rb").read)


def closed_by_server(sock: socket.socket, timeout: float = 5.0) -> bool:
    """True once the server has closed ``sock`` (EOF or a reset)."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except ConnectionError:
        return True


class TestWireFraming:
    """How the server reads frames off a TCP connection: limits are
    checked as soon as the length prefix arrives, a request may arrive
    in any number of pieces, several frames may arrive in one piece,
    and a stray byte while a query runs on the pool is a hang-up."""

    def test_oversized_prefix_is_refused_before_its_payload(self, db):
        with ReproServer(db) as server:
            with socket.create_connection(server.address) as sock:
                # the prefix alone: a server that waited for the
                # payload would never answer
                sock.sendall(HEADER.pack(MAX_FRAME_BYTES + 1))
                sock.settimeout(5.0)
                reply = read_reply(sock)
                assert reply["ok"] is False
                assert reply["error"]["type"] == "ProtocolError"
                assert "exceeds" in reply["error"]["message"]
                assert closed_by_server(sock)

    def test_a_request_sent_one_byte_at_a_time_is_answered(self, db):
        frame = encode_frame({"op": "query", "sql": QUERY})
        with ReproServer(db) as server:
            with socket.create_connection(server.address) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for i in range(len(frame)):
                    sock.send(frame[i:i + 1])
                    if i < 8:
                        time.sleep(0.002)
                sock.settimeout(5.0)
                reply = read_reply(sock)
        assert reply["kind"] == "result"
        assert reply["rows"] == 8

    def test_frames_sent_together_are_answered_in_order(self, db):
        frames = b"".join(encode_frame(message) for message in (
            {"op": "ping"}, {"op": "hello", "version": PROTOCOL_VERSION},
            {"op": "ping"}, {"op": "query", "sql": QUERY}))
        with ReproServer(db) as server:
            with socket.create_connection(server.address) as sock:
                sock.sendall(frames)
                sock.settimeout(5.0)
                read = sock.makefile("rb").read
                replies = [read_frame(read) for _ in range(4)]
        assert replies[0] == replies[2] == {"ok": True, "pong": True,
                                            "draining": False}
        assert replies[1]["version"] == PROTOCOL_VERSION
        assert replies[3]["kind"] == "result"
        assert replies[3]["rows"] == 8

    def test_a_frame_behind_a_pool_query_waits_its_turn(self, db):
        """Frames already buffered when a query goes to the pool are
        not a hang-up: they are answered after its reply."""
        frames = b"".join(encode_frame(message) for message in (
            {"op": "query", "sql": "SELECT x FROM slow_rows(0.05, 7)"},
            {"op": "ping"}))
        with ReproServer(db) as server:
            with socket.create_connection(server.address) as sock:
                sock.sendall(frames)
                sock.settimeout(5.0)
                read = sock.makefile("rb").read
                replies = [read_frame(read) for _ in range(2)]
            assert server.stats()["cancelled"] == 0
        assert replies[0]["data"] == [(7,)]
        assert replies[1]["pong"]

    def test_talking_out_of_turn_mid_stream_is_bounded(self, db):
        """Bytes sent while a reply streams to a client that does not
        read it are buffered only up to PAUSE_READING_BYTES (plus one
        read), and the hang-up still ends the stream."""
        rows = 500_000  # 8 MB: more than the socket buffers hold
        db.register_table("wide", Table(
            Table.from_rows(["a", "b"], [INT64, INT64], []).schema,
            {"a": np.arange(rows), "b": np.arange(rows)}))
        with ReproServer(db) as server:
            sock = socket.create_connection(server.address)
            write_frame(sock, {"op": "query", "sql": "SELECT * FROM wide"})
            assert wait_for(lambda: server.stats()["in_flight"] == 1)
            connection, = server._connections
            sock.setblocking(False)
            junk, sent = b"j" * 65536, 0
            while sent < 4 * PAUSE_READING_BYTES:
                try:
                    sent += sock.send(junk)
                except BlockingIOError:
                    break
            time.sleep(0.2)
            assert len(connection.buffer) <= 2 * PAUSE_READING_BYTES
            sock.close()
            assert wait_for(lambda: server.stats()["stream_aborted"] == 1)
            assert wait_for(lambda: server.stats()["in_flight"] == 0)

    def test_pipelined_warm_queries_to_a_client_that_never_reads(self, db):
        """Warm replies written in the read callback have backpressure:
        a client that pipelines requests for larger replies and never
        reads them leaves the server's write buffer and inbound buffer
        bounded, and once it reads, every request is answered."""
        groups = 1000  # a 16 KB reply to a 2 KB request
        db.register_table("wide", Table(
            Table.from_rows(["a", "b"], [INT64, INT64], []).schema,
            {"a": np.arange(groups), "b": np.arange(groups)}))
        sql = "SELECT a, sum(b) AS s FROM wide GROUP BY a"
        frame = encode_frame({"op": "query", "sql": sql,
                              "label": "x" * 2000})
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                client.query(sql)
                client.query(sql)
            assert server.stats()["inline"] == 1  # the statement is warm
            assert wait_for(lambda: not server._connections)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 65536)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
            sock.connect(server.address)
            assert wait_for(lambda: len(server._connections) == 1)
            connection, = server._connections
            sock.setblocking(False)
            # unbounded, the server would buffer 8 reply bytes per
            # request byte
            frames, sent, stalls = frame * 16, 0, 0
            while stalls < 5 and sent < 8 * 1024 * 1024:
                try:
                    sent += sock.send(frames[sent % len(frame):])
                    stalls = 0
                except BlockingIOError:
                    stalls += 1
                    time.sleep(0.05)
            time.sleep(0.2)
            # asyncio's high-water mark, plus the reply that crossed it
            assert connection.transport.get_write_buffer_size() \
                <= 64 * 1024 + 2 * groups * 16
            assert len(connection.buffer) <= 2 * PAUSE_READING_BYTES
            # finish the frame cut short, then read every reply
            sock.setblocking(True)
            rest = -sent % len(frame)
            sock.sendall(frame[len(frame) - rest:] if rest else b"")
            sock.sendall(encode_frame({"op": "ping"}))
            sock.settimeout(30.0)
            read = sock.makefile("rb").read
            count = -(-sent // len(frame))
            for _ in range(count):
                assert read_frame(read)["rows"] == groups
            assert read_frame(read)["pong"]
            sock.close()
            assert server.stats()["inline"] == 1 + count

    def test_a_stray_byte_cancels_the_pool_query(self, db):
        """One byte while a query runs on the pool is a protocol
        violation: the query is cancelled, publishes nothing, and the
        connection closes."""
        stall = Stall(db)
        cancel = db.recycler.cancel

        def cancelled(token):
            cancel(token)
            stall.gate.set()

        db.recycler.cancel = cancelled
        try:
            with ReproServer(db) as server:
                with socket.create_connection(server.address) as sock:
                    write_frame(sock, {"op": "query", "sql": STALL_QUERY})
                    assert stall.entered.wait(10)
                    assert wait_for(
                        lambda: server.stats()["in_flight"] == 1)
                    sock.sendall(b"x")
                    assert closed_by_server(sock)
                assert wait_for(lambda: server.stats()["cancelled"] == 1)
                assert wait_for(lambda: server.stats()["in_flight"] == 0)
                assert server.stats()["served"] == 0
        finally:
            stall.gate.set()
        # the cancelled query published nothing: a rerun is cold
        assert db.sql(STALL_QUERY).record.num_reused == 0

class TestResultsMatchInProcess:
    def test_rows_and_schema_identical(self, db):
        expected = db.sql(QUERY).table
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                result = client.query(QUERY)
        assert result.columns == list(expected.schema.names)
        assert result.types == [t.name for t in expected.schema.types]
        wire_rows = [tuple(v.item() for v in row)
                     for row in expected.to_rows()]
        assert result.rows == wire_rows
        # the server run was warm: it reused the in-process store
        assert result.stats["num_inserted"] == 0
        assert result.stats["num_reused"] >= 1


class TestAdmissionControl:
    def test_rejects_at_twice_the_limit(self, db):
        """At 2x (in-flight + queue) capacity the server rejects the
        overflow immediately with a typed error instead of hanging."""
        outcomes = []
        lock = threading.Lock()

        def worker(i):
            start = time.monotonic()
            try:
                with ServerClient(host, port) as client:
                    client.query(
                        f"SELECT x FROM slow_rows(0.8, {i})")
                    status = "served"
            except ServerOverloaded:
                status = "rejected"
            with lock:
                outcomes.append((status, time.monotonic() - start))

        with ReproServer(db, max_in_flight=2, max_queue=2,
                         drain_seconds=10.0) as server:
            host, port = server.address
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()

        served = [o for o in outcomes if o[0] == "served"]
        rejected = [o for o in outcomes if o[0] == "rejected"]
        assert len(served) + len(rejected) == 8
        assert stats["rejected"] == len(rejected)
        assert stats["served"] == len(served)
        # capacity is 2 in flight + 2 queued; with 8 one-shot clients
        # racing, at least the clear overflow must have been rejected
        assert len(rejected) >= 1
        assert len(served) >= 4
        # rejects are backpressure, not queueing: they return fast,
        # far below the 0.8 s a served slow query takes
        assert all(elapsed < 0.7 for _, elapsed in rejected)

    def test_sequential_queries_never_rejected(self, db):
        with ReproServer(db, max_in_flight=1, max_queue=0) as server:
            with ServerClient(*server.address) as client:
                for i in range(5):
                    client.query(f"SELECT x FROM slow_rows(0.01, {i})")
                assert server.stats()["rejected"] == 0


class TestDeadlines:
    def test_wire_timeout_raises_query_timeout(self, db):
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                with pytest.raises(QueryTimeout):
                    client.query("SELECT x FROM slow_rows(0.5, 1)",
                                 timeout=0.05)
                assert server.stats()["timeouts"] == 1
                # connection stays usable after a timed-out query
                assert client.query(QUERY).num_rows == 8

    def test_connection_deadline_applies_to_queries(self, db):
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                client.configure(deadline=0.05)
                with pytest.raises(QueryTimeout):
                    client.query("SELECT x FROM slow_rows(0.5, 2)")

    def test_default_timeout(self, db):
        with ReproServer(db, default_timeout=0.05) as server:
            with ServerClient(*server.address) as client:
                with pytest.raises(QueryTimeout):
                    client.query("SELECT x FROM slow_rows(0.5, 3)")


class TestGracefulDrain:
    def test_in_flight_finishes_new_work_rejected(self, db):
        server = ReproServer(db, drain_seconds=10.0)
        host, port = server.start()
        in_flight_result = {}
        started = threading.Event()

        def long_query():
            with ServerClient(host, port) as client:
                started.set()
                in_flight_result["rows"] = client.query(
                    "SELECT x FROM slow_rows(1.0, 42)").rows

        runner = threading.Thread(target=long_query)
        runner.start()
        started.wait()
        while server.stats()["in_flight"] == 0:  # query admitted?
            time.sleep(0.01)
        bystander = ServerClient(host, port)

        stopper = threading.Thread(target=server.stop)
        stopper.start()
        while not server._draining:
            time.sleep(0.005)
        # during the drain window: existing in-flight work continues,
        # but new queries are turned away with a typed error
        with pytest.raises(ServerUnavailable):
            bystander.query(QUERY)
        stopper.join()
        runner.join()
        bystander.close()
        assert in_flight_result["rows"] == [(42,)]

    def test_stop_is_idempotent(self, db):
        server = ReproServer(db)
        server.start()
        server.stop()
        server.stop()


class TestCrossFrontendRecycling:
    def test_skyserver_shared_across_dbapi_and_tcp(self):
        """The acceptance scenario: a PEP 249 client and a TCP client
        run the SkyServer pattern against one shared recycler — whoever
        comes second is warm (``num_inserted == 0``), and both see the
        same rows."""
        db = Database(RecyclerConfig(mode="spec"),
                      catalog=build_catalog(num_rows=20000))
        try:
            sky = primary_pattern()
            with dbapi.connect(database=db) as conn:
                cold = conn.cursor()
                cold.execute(sky)
                dbapi_rows = [tuple(v.item() for v in row)
                              for row in cold.fetchall()]
                assert cold.statistics["num_inserted"] > 0
            with ReproServer(db) as server:
                with ServerClient(*server.address) as client:
                    warm = client.query(sky)
            assert warm.stats["num_inserted"] == 0
            assert warm.stats["num_reused"] >= 1
            assert warm.rows == dbapi_rows
            frontends = db.summary()["service"]["frontends"]
            assert frontends["dbapi"]["queries"] == 1
            assert frontends["server"]["queries"] == 1
        finally:
            db.close()

    def test_many_clients_one_recycler(self, db):
        """Concurrent TCP clients issuing the same aggregate: exactly
        one materializes, everyone else reuses (in-flight dedup plus
        cache, across connections)."""
        results = {}
        lock = threading.Lock()

        def worker(name, host, port):
            with ServerClient(host, port) as client:
                r = client.query(QUERY)
                with lock:
                    results[name] = r

        with ReproServer(db, max_in_flight=4, max_queue=16) as server:
            host, port = server.address
            threads = [
                threading.Thread(target=worker, args=(f"c{i}", host, port))
                for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        rows = {tuple(map(tuple, r.rows)) for r in results.values()}
        assert len(results) == 6
        assert len(rows) == 1  # identical bytes for every client
        total_inserted = sum(r.stats["num_inserted"]
                             for r in results.values())
        cold = db.sql(QUERY)  # warm by now: nothing else to insert
        assert cold.record.num_inserted == 0
        assert total_inserted <= 3  # one plan's worth of stores, once


STALL_QUERY = "SELECT g, sum(v) AS s FROM gated_groups() GROUP BY g"
TRANSPORTS = {"tcp": (ReproServer, ServerClient),
              "http": (HttpServer, HttpClient)}


class Stall:
    """Connection A runs ``STALL_QUERY`` and parks inside
    ``gated_groups`` until :attr:`gate` opens; its aggregate is worth
    caching, so it is the in-flight producer, and connection B sending
    the same statement stalls behind it in
    ``InFlightRegistry.wait_for`` (:attr:`stalled` is set then)."""

    def __init__(self, db) -> None:
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.stalled = threading.Event()
        self.outcome: list[object] = []
        table = db.catalog.snapshot().table_entry("t").table

        def gated_groups() -> Table:
            self.entered.set()
            self.gate.wait(30.0)
            return table

        db.register_function("gated_groups", gated_groups, table.schema,
                             invocation_cost=50_000.0)
        registry = db.recycler.inflight
        wait_for_producer = registry.wait_for

        def recording(node, token, timeout=None):
            if registry.producer_of(node) not in (None, token):
                self.stalled.set()
            return wait_for_producer(node, token, timeout)

        registry.wait_for = recording

    def produce(self, client_cls, server) -> threading.Thread:
        """Start connection A; its rows (or error) land in
        :attr:`outcome`."""
        def run():
            try:
                with client_cls(*server.address) as client:
                    self.outcome.append(client.query(STALL_QUERY).rows)
            except Exception as exc:  # noqa: BLE001 - asserted by caller
                self.outcome.append(exc)

        producer = threading.Thread(target=run)
        producer.start()
        assert self.entered.wait(10)
        assert wait_for(lambda: server.stats()["in_flight"] == 1)
        return producer

    def stall_consumer(self, server) -> socket.socket:
        """Connection B: send ``STALL_QUERY`` without reading the reply
        and wait until it stalls behind A.  Close the socket to hang
        up."""
        sock = socket.create_connection(server.address)
        if isinstance(server, HttpServer):
            body = json.dumps({"sql": STALL_QUERY}).encode()
            sock.sendall(b"POST /v1/query HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n%b"
                         % (len(body), body))
        else:
            write_frame(sock, {"op": "query", "sql": STALL_QUERY})
        assert self.stalled.wait(10)
        assert server.stats()["in_flight"] == 2
        return sock


def service_cancelled(db, frontend: str) -> int:
    """Queries of ``frontend`` the service counted as cancelled: 0 until
    it accounts the frontend's first query."""
    frontends = db.summary()["service"]["frontends"]
    return frontends.get(frontend, {}).get("cancelled", 0)


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
class TestStalledConsumerCancel:
    """A query stalled on another query's in-flight result must wake
    when its connection goes away — tripping its cancellation token is
    not enough, the recycler must retire its producer token too — or
    it holds its pool thread and admission slot until
    ``inflight_wait_timeout`` (30 s)."""

    def test_hang_up_frees_the_stalled_query_at_once(self, db, transport):
        server_cls, client_cls = TRANSPORTS[transport]
        stall = Stall(db)
        try:
            with server_cls(db) as server:
                producer = stall.produce(client_cls, server)
                stall.stall_consumer(server).close()
                assert wait_for(lambda: server.stats()["in_flight"] == 1,
                                timeout=1.0)
                assert server.stats()["cancelled"] == 1
                stall.gate.set()
                producer.join(10)
                assert not producer.is_alive()
                repeat = db.sql(STALL_QUERY)
                assert stall.outcome == [repeat.table.to_rows()]
                assert len(db.recycler.inflight) == 0
            # A published its result: the repeat above reused it
            assert repeat.record.num_reused >= 1
        finally:
            stall.gate.set()

    def test_stop_without_drain_retires_both_queries(self, db, transport):
        server_cls, client_cls = TRANSPORTS[transport]
        stall = Stall(db)
        server = server_cls(db, drain_seconds=0)
        server.start()
        try:
            producer = stall.produce(client_cls, server)
            consumer = stall.stall_consumer(server)
            server.stop()
            # B wakes and aborts, and A's registration is dropped, while
            # A is still parked inside the table function
            assert wait_for(lambda: service_cancelled(db, server.frontend)
                            == 1, timeout=1.0)
            assert len(db.recycler.inflight) == 0
            stall.gate.set()
            producer.join(10)
            assert not producer.is_alive()
            assert wait_for(lambda: service_cancelled(db, server.frontend)
                            == 2)
            assert len(db.recycler.inflight) == 0
            consumer.close()
            # the cancelled producer published nothing
            assert db.sql(STALL_QUERY).record.num_reused == 0
        finally:
            stall.gate.set()
            server.stop()
