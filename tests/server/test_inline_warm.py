"""Warm statements answered on the server's event loop.

A query that a statement-cache hit and a full-plan hit of the recycler
can answer never leaves the loop thread
(``ServingBase._issue`` → ``ExecutionService.execute(warm_only=True)``);
everything else takes the worker pool as before.  Pinned here: the
inline path is invisible to the recycler and the statement cache
(``tests/twin_replay.py``, wire case), it answers nothing it should not
(stale entries, invalid statements, ``off`` / ``pa`` mode), admission,
deadlines and drain apply to it unchanged, and which thread executes and
encodes which reply."""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import Database, Table
from repro.columnar import FLOAT64, INT64, STRING, Schema
from repro.errors import (QueryTimeout, ServerOverloaded,
                          ServerUnavailable)
from repro.server import (ClientResult, HttpClient, HttpServer, ReproServer,
                          ServerClient)
from repro.server.base import INLINE_ENCODE_BYTES
from repro.server.protocol import write_frame
from repro.workloads import skyserver
from repro.workloads.skyserver import queries as sky_queries
from test_server import wait_for
from twin_replay import (WireTwins, quiet_config, statement_cache,
                         wire_rows)

SCAN = "SELECT * FROM photoobj LIMIT 2000"


def sky_db(mode: str = "spec") -> Database:
    return Database(replace(quiet_config(64 * 1024 * 1024), mode=mode),
                    catalog=skyserver.build_catalog(4000, seed=3))


def sky_statements(seed: int, count: int) -> list[str]:
    """The paper's pattern mix (mostly repeats of a few statements),
    with a streamed scan every twelfth statement."""
    texts = [query.sql for query in
             sky_queries.generate_workload(count, seed=seed)]
    texts[::12] = [SCAN] * len(texts[::12])
    return texts


class NdjsonClient:
    """What ``curl`` sees of ``POST /v1/query``: NDJSON lines."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=30)

    def query(self, sql: str) -> ClientResult:
        self._conn.request("POST", "/v1/query",
                           body=json.dumps({"sql": sql}).encode())
        response = self._conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        header, *chunks, end = [json.loads(line) for line
                                in response.read().splitlines()]
        assert end["kind"] == "result_end"
        return ClientResult(
            columns=header["columns"], types=header["types"],
            rows=[tuple(row) for chunk in chunks for row in chunk["rows"]],
            stats=header["stats"], chunks=len(chunks))

    def __enter__(self) -> "NdjsonClient":
        return self

    def __exit__(self, *exc) -> None:
        self._conn.close()


TRANSPORTS = {
    "tcp": (ReproServer, ServerClient),
    "http-frames": (HttpServer, HttpClient),
    "http-ndjson": (HttpServer, NdjsonClient),
}


@pytest.fixture
def db():
    db = sky_db()
    yield db
    db.close()


@pytest.fixture
def gate(db):
    """``SELECT x FROM gated(tag)`` blocks until the gate opens: a cold
    producer that holds its pool thread and admission slot."""
    opened = threading.Event()

    def gated(tag) -> Table:
        opened.wait(30.0)
        return Table.from_rows(["x"], [INT64], [(int(tag),)])

    db.register_function("gated", gated, Schema(["x"], [INT64]))
    yield opened
    opened.set()


class TestStateEquivalence:
    @pytest.mark.parametrize("transport", sorted(TRANSPORTS))
    def test_served_mix_equals_in_process_twin(self, transport):
        server_cls, client_cls = TRANSPORTS[transport]
        twins = WireTwins(sky_db)
        try:
            with server_cls(twins.fast) as server, \
                    client_cls(*server.address) as client:
                twins.query = client.query
                for index, text in enumerate(sky_statements(11, 160)):
                    twins.sql(text)
                    if index % 40 == 39:
                        twins.assert_same_state()
                twins.assert_same_state()
                stats = server.stats()
                assert twins.fast.summary()["service"]["inline"] \
                    == stats["inline"]
            fast_hits, slow_hits = twins.root_hits()
            # every full-plan hit was answered on the loop, and the
            # stream is mostly such hits
            assert stats["inline"] == fast_hits == slow_hits > 100
            assert stats["served"] == 160
        finally:
            twins.close()


class TestFallsThroughToThePool:
    def test_stale_entry_and_invalid_statement(self, db):
        text = "SELECT type, count(*) AS n FROM photoobj GROUP BY type"
        with ReproServer(db) as server, \
                ServerClient(*server.address) as client:
            def ask():
                result = client.query(text)
                return result, server.stats()["inline"]

            cold, inline = ask()
            assert inline == 0
            warm, inline = ask()
            assert inline == 1 and warm.rows == cold.rows
            hits = statement_cache(db)["hits"]

            # after an append the root's entry is behind: pool, which
            # reuses it extended over the 50 new rows and republishes
            # it — the next repeat is inline again
            db.append_rows("photoobj", db.catalog.table("photoobj").head(50))
            stale, inline = ask()
            assert inline == 1
            assert stale.stats["num_reused"] == 1
            assert db.summary()["catalog"]["entries_extended"] == 1
            assert sum(n for _, n in stale.rows) \
                == sum(n for _, n in cold.rows) + 50
            assert stale.rows == wire_rows(db.sql(text).table)
            # the warm attempt and the pool's execute were one hit
            assert statement_cache(db)["hits"] == hits + 2
            again, inline = ask()
            assert inline == 2 and again.rows == stale.rows

            # the statement is invalidated by a schema change: pool
            db.alter_table_add_column("photoobj", "extra", INT64, 7)
            hits = statement_cache(db)["hits"]
            rebound, inline = ask()
            assert inline == 2 and rebound.rows == stale.rows
            cache = statement_cache(db)
            assert cache["hits"] == hits and cache["invalidated"] == 1
            assert server.stats()["served"] == 5

    def test_off_never_answers_inline(self):
        db = sky_db("off")
        try:
            reference = wire_rows(db.sql(SCAN).table)
            with ReproServer(db) as tcp, HttpServer(db) as http, \
                    ServerClient(*tcp.address) as tcp_client, \
                    HttpClient(*http.address) as http_client:
                for _ in range(3):
                    assert tcp_client.query(SCAN).rows == reference
                    assert http_client.query(SCAN).rows == reference
                assert tcp.stats()["served"] == 3
                assert http.stats()["served"] == 3
                assert tcp.stats()["inline"] == 0
                assert http.stats()["inline"] == 0
        finally:
            db.close()

    def test_pa_answers_what_it_runs_unrewritten_inline(self):
        """``pa`` leaves ``SCAN`` as it is, so a repeat is warm as under
        ``spec``; it rewrites a TopN into a larger one that steering may
        decline, which has two plans to run and is never warm."""
        db = sky_db("pa")
        rewritten = sky_queries.nearest_variant()
        try:
            reference = wire_rows(db.sql(SCAN).table)
            expected = db.sql(rewritten)
            assert expected.record.proactive == ("topn",)
            expected = wire_rows(expected.table)
            with ReproServer(db) as tcp, HttpServer(db) as http, \
                    ServerClient(*tcp.address) as tcp_client, \
                    HttpClient(*http.address) as http_client:
                for _ in range(3):
                    assert tcp_client.query(SCAN).rows == reference
                    assert http_client.query(SCAN).rows == reference
                    assert tcp_client.query(rewritten).rows == expected
                    assert http_client.query(rewritten).rows == expected
                assert tcp.stats()["served"] == 6
                assert http.stats()["served"] == 6
                assert tcp.stats()["inline"] == 3
                assert http.stats()["inline"] == 3
        finally:
            db.close()


class TestLimitsStillApply:
    def test_expired_deadlines_are_typed_timeouts(self, db):
        with ReproServer(db) as server, \
                ServerClient(*server.address) as client:
            client.query(SCAN)
            expected = client.query(SCAN).rows
            assert server.stats()["inline"] == 1
            with pytest.raises(QueryTimeout):
                client.query(SCAN, timeout=0)
            assert server.stats()["timeouts"] == 1
            # the connection survives, and so does the warm path
            assert client.query(SCAN).rows == expected
            assert server.stats()["inline"] == 2
            client.configure(deadline=0)
            with pytest.raises(QueryTimeout):
                client.query(SCAN)
            assert client.ping()
            stats = server.stats()
            assert stats["timeouts"] == 2 and stats["inline"] == 2
            assert stats["errors"] == 0
        frontend = db.summary()["service"]["frontends"]["server"]
        assert frontend["timeouts"] == 2 and frontend["queries"] == 3

    def test_http_timeout_zero_is_504(self, db):
        with HttpServer(db) as server, \
                HttpClient(*server.address) as client:
            client.query(SCAN)
            client.query(SCAN)
            with pytest.raises(QueryTimeout):
                client.query(SCAN, timeout=0)
            assert server.stats()["timeouts"] == 1
            assert len(client.query(SCAN).rows) == 2000

    def test_saturated_server_rejects_a_warm_statement(self, db, gate):
        with ReproServer(db, max_in_flight=2, max_queue=1) as server:
            host, port = server.address
            with ServerClient(host, port) as client:
                client.query(SCAN)
                expected = client.query(SCAN).rows
            assert server.stats()["inline"] == 1

            results = {}

            def ask(tag, sql):
                with ServerClient(host, port) as client:
                    results[tag] = client.query(sql).rows

            cold = [threading.Thread(
                target=ask, args=(tag, f"SELECT x FROM gated({tag})"))
                for tag in (1, 2)]
            for thread in cold:
                thread.start()
            assert wait_for(lambda: server.stats()["in_flight"] == 2)
            # both slots taken: a warm statement queues like any other
            queued = threading.Thread(target=ask, args=("warm", SCAN))
            queued.start()
            assert wait_for(lambda: len(server._waiters) == 1)
            # slots and queue full: rejected, warm or not
            with ServerClient(host, port) as client:
                with pytest.raises(ServerOverloaded):
                    client.query(SCAN)
                assert client.ping()
            assert server.stats()["rejected"] == 1
            assert server.stats()["inline"] == 1
            gate.set()
            for thread in cold + [queued]:
                thread.join(10.0)
                assert not thread.is_alive()
            assert results == {1: [(1,)], 2: [(2,)], "warm": expected}
            assert server.stats()["inline"] == 2

    def test_draining_server_rejects_a_warm_statement(self, db, gate):
        server = ReproServer(db, drain_seconds=10.0)
        host, port = server.start()
        try:
            with ServerClient(host, port) as client:
                client.query(SCAN)
                client.query(SCAN)
            results = {}

            def hold():
                with ServerClient(host, port) as client:
                    results["cold"] = client.query(
                        "SELECT x FROM gated(9)").rows

            holder = threading.Thread(target=hold)
            holder.start()
            assert wait_for(lambda: server.stats()["in_flight"] == 1)
            bystander = ServerClient(host, port)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            assert wait_for(lambda: server._draining)
            with pytest.raises(ServerUnavailable):
                bystander.query(SCAN)
            assert server.stats()["inline"] == 1
            gate.set()
            stopper.join(15.0)
            holder.join(10.0)
            assert not stopper.is_alive() and not holder.is_alive()
            bystander.close()
            assert results["cold"] == [(9,)]
        finally:
            gate.set()
            server.stop()

    def test_disconnect_during_a_cold_query_still_cancels_it(
            self, db, gate):
        """The pool path keeps its watcher — also on a connection whose
        earlier statements were answered inline."""
        with ReproServer(db) as server:
            with ServerClient(*server.address) as client:
                client.query(SCAN)
                client.query(SCAN)
                assert server.stats()["inline"] == 1
                write_frame(client._sock, {
                    "op": "query", "sql": "SELECT x FROM gated(5)"})
                assert wait_for(lambda: server.stats()["in_flight"] == 1)
                # the connection's third query, held here: a hung-up
                # connection leaves ``server._connections``
                assert wait_for(lambda: active_query(server, 3))
                gated = active_query(server, 3)
            # the hang-up is noticed while the producer is still gated
            assert wait_for(lambda: gated.cancel_token.cancelled)
            gate.set()
            assert wait_for(lambda: server.stats()["cancelled"] == 1)
            assert wait_for(lambda: server.stats()["in_flight"] == 0)
            assert server.stats()["served"] == 2
        # the abandoned query published nothing
        assert db.sql("SELECT x FROM gated(5)").record.num_reused == 0


def active_query(server, seq: int):
    """Query ``seq`` (its number on its session) if it is in flight on
    one of ``server``'s live connections."""
    for connection in list(server._connections):
        for query in list(connection.session._active):
            if query.seq == seq:
                return query
    return None


def record_chunk_threads(server) -> list[tuple[str, list[str]]]:
    """Make ``server`` log, per reply, the thread that executed the
    query (it is the one that calls ``_chunks``) and the thread that
    encoded each chunk."""
    log = []
    make_chunks = server._chunks

    def recording(table, **kwargs):
        encoders = []
        log.append((threading.current_thread().name, encoders))
        chunks = make_chunks(table, **kwargs)

        def traced():
            while True:
                encoders.append(threading.current_thread().name)
                try:
                    yield next(chunks)
                except StopIteration:
                    encoders.pop()
                    return

        return traced()

    server._chunks = recording
    return log


class TestThreadPlacement:
    LOOP = "repro-server-loop"

    @pytest.fixture
    def strings_db(self, db):
        rng = np.random.default_rng(5)
        rows = 8192
        db.register_table("notes", Table(
            Schema(["k", "v", "s", "t"], [INT64, FLOAT64, STRING, STRING]),
            {"k": np.arange(rows), "v": rng.uniform(0, 1, rows),
             "s": np.array([f"note-{i % 97}" for i in range(rows)],
                           dtype=object),
             "t": np.array([f"tag {i % 13} of thirteen" for i in range(rows)],
                           dtype=object)}))
        return db

    def test_which_thread_executes_and_encodes(self, strings_db):
        db = strings_db
        short = ("SELECT objid, ra, dec FROM photoobj WHERE type = 3"
                 " ORDER BY objid LIMIT 10")
        few_strings = "SELECT k, s FROM notes ORDER BY k LIMIT 10"
        many_strings = "SELECT * FROM notes"
        texts = [short, SCAN, few_strings, many_strings]
        with ReproServer(db) as server, \
                ServerClient(*server.address) as client:
            log = record_chunk_threads(server)
            cold = [client.query(text).rows for text in texts]
            assert all(executor.startswith("repro-server_")
                       and encoders == [executor]
                       for executor, encoders in log)
            del log[:]
            warm = [client.query(text).rows for text in texts]
            assert warm == cold
            assert [len(rows) for rows in warm] == [10, 2000, 10, 8192]
            assert server.stats()["inline"] == 4
        (short_log, scan_log, few_log, many_log) = log
        # executed on the loop, all four; encoded there when that is
        # copying buffers or the result is small
        assert short_log == (self.LOOP, [self.LOOP])
        assert scan_log == (self.LOOP, [self.LOOP])
        assert few_log == (self.LOOP, [self.LOOP])
        assert db.sql(few_strings).table.nbytes() <= INLINE_ENCODE_BYTES
        executor, (encoder,) = many_log
        assert executor == self.LOOP
        assert encoder.startswith("repro-server_")

    def test_ndjson_is_encoded_inline_only_when_small(self, db):
        short = ("SELECT objid, ra, dec FROM photoobj WHERE type = 3"
                 " ORDER BY objid LIMIT 10")
        with HttpServer(db) as server, \
                NdjsonClient(*server.address) as client:
            for text in (short, SCAN):
                client.query(text)
            log = record_chunk_threads(server)
            assert len(client.query(short).rows) == 10
            assert len(client.query(SCAN).rows) == 2000
            assert server.stats()["inline"] == 2
        loop = "repro-http-loop"
        assert log[0] == (loop, [loop])
        executor, (encoder,) = log[1]
        assert executor == loop and encoder.startswith("repro-server_")


class TestConcurrentLoopAndPool:
    def test_every_query_is_counted_exactly_once(self):
        """The loop thread now changes recycler and statement-cache
        state beside the pool threads.  More clients than cores, a
        short switch interval, and appends that keep evicting what the
        loop would answer: every query must still be one statement-
        cache lookup, one query id and one count, whichever thread
        answered it, and no reply may be older than the one before."""
        rows, step, appends, clients, rounds = 3000, 10, 6, 6, 90
        count = "SELECT count(*) AS n FROM t"
        texts = [count, "SELECT g, sum(v) AS s FROM t GROUP BY g ORDER BY g",
                 "SELECT g, v FROM t LIMIT 2000"]
        rng = np.random.default_rng(2)
        db = Database(quiet_config(64 * 1024 * 1024))
        db.register_table("t", Table(
            Schema(["g", "v"], [INT64, FLOAT64]),
            {"g": rng.integers(0, 8, rows), "v": rng.uniform(0, 1, rows)}))
        delta = db.catalog.table("t").head(step)
        failures = []

        def client(host, port):
            try:
                seen = 0
                with ServerClient(host, port) as connection:
                    for index in range(rounds):
                        text = texts[index % len(texts)]
                        result = connection.query(text)
                        if text is count:
                            (n,), = result.rows
                            assert n >= seen and (n - rows) % step == 0
                            seen = n
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        def appender():
            try:
                for _ in range(appends):
                    time.sleep(0.03)
                    db.append_rows("t", delta)
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ReproServer(db, max_in_flight=4, max_queue=16) as server:
                threads = [threading.Thread(target=client,
                                            args=server.address)
                           for _ in range(clients)]
                threads.append(threading.Thread(target=appender))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not failures, failures
            total = clients * rounds
            assert stats["served"] == total and stats["errors"] == 0
            assert 0 < stats["inline"] < total
            cache = statement_cache(db)
            assert cache["hits"] + cache["misses"] == total
            service = db.summary()["service"]
            assert service["frontends"]["server"]["queries"] == total
            # every statement took one query id: ids 1..total went to
            # the clients, so the next statement's is total + 1
            assert db.summary()["queries"] == total
            final = db.sql(count)
            assert final.record.query_id == total + 1
            assert final.table.to_rows() == [(rows + appends * step,)]
            db.recycler.cache.check_invariants()
        finally:
            db.close()
