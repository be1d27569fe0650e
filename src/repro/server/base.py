"""The shared serving core: lifecycle, admission, drain, streaming.

The TCP frontend (:class:`~repro.server.server.ReproServer`) and the
HTTP/JSON frontend (:class:`~repro.server.http.HttpServer`) are two
wire formats over the same machinery; :class:`ServingBase` owns
everything that must behave identically whichever port a client picks:

* **lifecycle** — an asyncio accept loop on a dedicated thread, a
  worker thread pool for the blocking execution calls, and the
  graceful-drain shutdown sequence (stop accepting, bounded wait for
  in-flight work, cancel stragglers, await every connection's close);
* **admission control** — at most ``max_in_flight`` queries execute at
  once, up to ``max_queue`` more wait; beyond that a typed
  :class:`~repro.errors.ServerOverloaded` reject, and during drain a
  typed :class:`~repro.errors.ServerUnavailable`.  A streaming reply
  holds its admission slot until the trailer is written, so drain
  accounting covers bytes-in-flight, not just queries-in-flight;
* **warm statements stay on the loop** — a query the statement cache
  and a full-plan hit of the recycler can answer
  (``ExecutionService.execute(warm_only=True)``: O(1) in the data, no
  waiting) is executed by the event loop itself, under the admission
  slot it holds; everything else goes to the worker pool;
* **one query-issuing path** — each connection owns a
  :class:`~repro.session.Session`, and both frontends issue every query
  through :meth:`ServingBase._execute`, which begins it on that session
  (producer token, cancellation token from the request's ``timeout``
  and the connection's deadline), runs it and streams the reply;
* **disconnect-aware execution** — while a query executes on the
  worker pool, the event loop watches the connection for EOF (no
  frontend allows pipelining, so any inbound byte mid-query is a
  protocol violation); a vanished client — or drain running out of
  time — cancels the connection's session
  (:meth:`~repro.session.Session.cancel`): the producer aborts at its
  next batch boundary, a query stalled on another's in-flight result
  wakes at once, and the recycler's abandon path guarantees no cache
  entry is published for it;
* **streaming** — one driver turns a materialized result into one
  ``result`` frame when its rows fit in one columnar chunk, else a
  ``result_header`` / ``result_chunk``* / ``result_end`` sequence:
  chunks are serialized on the worker pool (the first by the thread
  that ran the query — unless that is the loop and the chunk is not
  cheap, :data:`INLINE_ENCODE_BYTES` — so a reply of one chunk is one
  ``write``), in the columnar or the JSON-lines encoding as the client
  can read, with backpressure via the transport's ``drain()`` between
  chunks;
* **request validation** — client-supplied durations (``timeout``,
  ``deadline``) are checked once, here, and refused typed.

Subclasses implement ``_handle_connection``, ``_reply_error`` and
``_framing`` (their wire format) and set ``frontend`` (the
:class:`~repro.exec_service.ExecutionService` statistics label).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import TYPE_CHECKING

from ..columnar.types import STRING
from ..errors import (QueryCancelled, QueryTimeout, ReproError,
                      ServerOverloaded, ServerUnavailable)
from ..recycler.recycler import CLIENT_COUNTERS
from ..session import cancel_sessions
from .protocol import (DEFAULT_CHUNK_BYTES, DEFAULT_CHUNK_ROWS,
                       ProtocolError, columnar_chunk, encode_json,
                       encode_result_chunk, error_payload,
                       iter_columnar_chunks, iter_result_chunks,
                       result_end_payload, result_header_payload,
                       result_parts)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..db import Database
    from ..session import Session


#: the largest result, in payload bytes (``Table.nbytes()``), whose
#: first chunk the event loop encodes itself when the encoding touches
#: every value — NDJSON, or a columnar chunk with a STRING column.
#: Such a chunk costs 15-40 µs plus 8-29 ns a byte
#: (``docs/ARCHITECTURE.md``, "What runs on the loop thread"), so this
#: keeps the loop's share near 0.1 ms; a fixed-width columnar chunk is
#: copied buffers — work the loop repeats to join and write it — and
#: is encoded inline whatever its size.
INLINE_ENCODE_BYTES = 4096


class ClientDisconnected(Exception):
    """Internal: the client vanished (or spoke out of turn) while its
    query executed or streamed — the handler closes the connection."""


class Connection:
    """Per-connection state, touched by the event loop only."""

    __slots__ = ("writer", "session")

    def __init__(self, writer, session: "Session") -> None:
        self.writer = writer
        #: every query on the connection is issued, bounded and
        #: cancelled through this session
        self.session = session


def query_stats_payload(record) -> dict | None:
    """The recycler's per-query counters as a wire-ready dict (the
    ``stats`` of a ``result_header``)."""
    if record is None:
        return None
    return {"query_id": record.query_id,
            **{name: getattr(record, name) for name in CLIENT_COUNTERS}}


class ServingBase:
    """Shared lifecycle + admission + streaming for serving frontends."""

    #: the per-frontend statistics label in
    #: ``Database.summary()["service"]["frontends"]``.
    frontend = "server"

    def __init__(self, db: "Database", host: str = "127.0.0.1",
                 port: int = 0, *, max_in_flight: int = 8,
                 max_queue: int = 16,
                 default_timeout: float | None = None,
                 drain_seconds: float = 5.0,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        self.db = db
        self.service = db.service
        self.host = host
        self.port = port  # 0 = ephemeral; the real port is set on start
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        self.drain_seconds = drain_seconds
        #: streaming bounds: every result_chunk holds at most this many
        #: rows / about this many encoded bytes (whichever is first).
        self.chunk_rows = chunk_rows
        self.chunk_bytes = chunk_bytes

        self._pool = ThreadPoolExecutor(
            max_workers=max_in_flight, thread_name_prefix="repro-server")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._stopped = threading.Event()
        self._draining = False
        self._closed = False

        # admission state (single-threaded: only the loop mutates it)
        self._slots: asyncio.Semaphore | None = None
        self._waiters = 0
        self._active = 0
        self._idle = asyncio.Event()  # set while nothing executes
        self._connections: set[object] = set()

        self._stats_lock = threading.Lock()
        self._counters = {
            "served": 0, "inline": 0, "rejected": 0, "errors": 0,
            "timeouts": 0, "cancelled": 0, "connections_total": 0,
            "streams": 0, "stream_chunks": 0, "stream_aborted": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind and serve on a dedicated event-loop thread; returns the
        bound ``(host, port)`` (the port is real even when constructed
        with the ephemeral port 0)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name=f"repro-{self.frontend}-loop",
            daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        self.service.attach_server(self)
        return (self.host, self.port)

    def _run_loop(self) -> None:
        asyncio.run(self._serve())
        # Reap any connection stranded mid-accept by the listener close:
        # asyncio wraps an accepted socket in a transport on a later
        # tick, and when that tick lands after ``Server.close()`` the
        # half-built transport is abandoned in a reference cycle still
        # holding the fd — its client would block on a reply forever.
        # Collecting the cycle closes the socket, so a stranded client
        # sees EOF (→ ServerUnavailable) instead of hanging.
        gc.collect()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self.max_in_flight)
        self._idle.set()
        self._shutdown = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._accept, self.host, self.port)
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()
        await self._shutdown.wait()
        # Flush in-flight accepts before closing the listener: a socket
        # the kernel handed over in this very iteration only gets its
        # transport (and our handler) on later ticks, and closing the
        # server first would strand it half-built — never read, never
        # closed.  A few ticks land those connections in handlers,
        # which then reject queries with a typed drain error.
        for _ in range(8):
            await asyncio.sleep(0)
        # stop accepting; existing connections stay up for the drain
        # (not Server.wait_closed(), which would await their departure)
        self._server.close()
        # drain: wait (bounded) for in-flight queries, then cancel
        try:
            await asyncio.wait_for(self._idle.wait(),
                                   timeout=self.drain_seconds)
        except asyncio.TimeoutError:
            pass
        connections = list(self._connections)
        cancel_sessions([connection.session for connection in connections])
        for connection in connections:
            connection.writer.close()
        # close() only *schedules* connection_lost; if the loop exits
        # first, the accepted fd outlives it inside this process and a
        # client blocked on recv() for a reply never unblocks.  Await
        # the closes so no socket survives the loop.
        waiters = [connection.writer.wait_closed()
                   for connection in list(self._connections)]
        if waiters:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*waiters, return_exceptions=True),
                    timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
        self._stopped.set()

    async def _accept(self, reader, writer) -> None:
        connection = self._make_connection(writer)
        self._connections.add(connection)
        self._count("connections_total")
        try:
            await self._handle_connection(connection, reader, writer)
        finally:
            self._connections.discard(connection)
            # client gone: abort whatever it still has executing, so a
            # dropped connection never pins an execution slot
            connection.session.cancel()
            connection.session.close()
            writer.close()

    def stop(self) -> None:
        """Graceful drain: stop accepting, reject new queries, let
        in-flight queries finish within ``drain_seconds``, cancel the
        rest, close every connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._draining = True
        loop = self._loop
        if loop is not None and self._thread is not None \
                and self._thread.is_alive():
            loop.call_soon_threadsafe(self._shutdown.set)
            self._stopped.wait(timeout=(self.drain_seconds or 0) + 10.0)
            self._thread.join(timeout=10.0)
        self.service.detach_server(self)
        self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ServingBase":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # ------------------------------------------------------------------
    # what subclasses provide
    # ------------------------------------------------------------------
    def _make_connection(self, writer) -> Connection:
        return Connection(writer, self.db.connect(frontend=self.frontend))

    async def _handle_connection(self, connection, reader,
                                 writer) -> None:
        """The wire format: read requests, dispatch, write replies."""
        raise NotImplementedError

    async def _reply_error(self, writer, exc: BaseException) -> bool:
        """Answer a query with ``exc`` before its stream started;
        returns False when the connection should drop."""
        raise NotImplementedError

    def _framing(self, columnar: bool) -> tuple:
        """``(frame, head, tail)`` of a streamed reply (see
        :meth:`_stream_result`)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Admission/served/streaming counters plus live connection
        count (folded into ``Database.summary()["service"]`` while
        attached).  Of the ``served`` queries, ``inline`` were answered
        on the event-loop thread; the rest went to the worker pool."""
        with self._stats_lock:
            counters = dict(self._counters)
        counters["active_connections"] = len(self._connections)
        counters["in_flight"] = self._active
        return counters

    def _count(self, key: str, delta: int = 1) -> None:
        with self._stats_lock:
            self._counters[key] += delta

    def _count_query_error(self, exc: BaseException) -> None:
        kind = type(exc).__name__
        if kind == "QueryTimeout":
            self._count("timeouts")
        elif kind == "QueryCancelled":
            self._count("cancelled")
        else:
            self._count("errors")

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admission_error(self) -> Exception | None:
        """The typed reject for the current admission state, or None
        when the query may wait for (or take) a slot."""
        if self._draining:
            return ServerUnavailable(
                "server is draining and accepts no new queries")
        if self._slots.locked() and self._waiters >= self.max_queue:
            return ServerOverloaded(
                f"server at capacity ({self.max_in_flight} in flight,"
                f" {self._waiters} queued)")
        return None

    @contextlib.asynccontextmanager
    async def _slot(self):
        """Hold one execution slot; the ``_idle`` event drives drain."""
        self._waiters += 1
        try:
            await self._slots.acquire()
        finally:
            self._waiters -= 1
        self._active += 1
        self._idle.clear()
        try:
            yield
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()
            self._slots.release()

    # ------------------------------------------------------------------
    # request validation
    # ------------------------------------------------------------------
    @staticmethod
    def _seconds(value, what: str) -> float | None:
        """A client-supplied duration (``timeout`` / ``deadline``) as
        seconds, or a typed refusal: it arrives as arbitrary JSON."""
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or value < 0:
            raise ProtocolError(
                f"{what} must be a finite number of seconds >= 0,"
                f" got {value!r}")
        return float(value)

    # ------------------------------------------------------------------
    # the one query-issuing path
    # ------------------------------------------------------------------
    async def _execute(self, connection: Connection, sql: str, *,
                       label: str, timeout: float | None,
                       columnar: bool, reader, writer) -> bool:
        """Issue ``sql`` on the connection's session, under the
        admission slot the caller holds, and stream the reply; returns
        False when the connection should drop.

        The query is registered with the session from before its warm
        attempt until its trailer is written, so one producer token and
        one cancellation token cover the warm attempt, the pool
        fall-through and the stream, and a cancel of the session
        (disconnect, drain) reaches it in every phase."""
        with connection.session.begin(timeout=timeout) as query:
            call = partial(query.execute, sql, label=label)
            try:
                result, chunks, first = await self._run_query(
                    query, call, reader=reader, columnar=columnar)
            except ClientDisconnected:
                return False
            except ReproError as exc:
                self._count_query_error(exc)
                return await self._reply_error(writer, exc)
            except RuntimeError as exc:
                # pool shut down mid-drain: the query never started
                self._count("rejected")
                return await self._reply_error(
                    writer, ServerUnavailable(str(exc)))
            self._count("served")
            try:
                await self._stream_result(query, result, chunks, first,
                                          writer=writer, columnar=columnar)
            except (ConnectionError, RuntimeError):
                # client gone mid-stream: stop producing chunks
                self._count("stream_aborted")
                query.cancel()
                return False
            return True

    # ------------------------------------------------------------------
    # disconnect-aware execution
    # ------------------------------------------------------------------
    def _chunks(self, table, *, columnar: bool, stream_id: int):
        """The result as ``(result_chunk payload, row count)`` pieces in
        the encoding the client can read."""
        if columnar:
            return iter_columnar_chunks(table, chunk_rows=self.chunk_rows,
                                        chunk_bytes=self.chunk_bytes)
        return ((encode_result_chunk(stream_id, seq, rows), len(rows))
                for seq, rows in enumerate(iter_result_chunks(
                    table, chunk_rows=self.chunk_rows,
                    chunk_bytes=self.chunk_bytes)))

    async def _run_query(self, query, call, *, reader, columnar: bool):
        """Run ``query`` through ``call`` and return ``(result, chunks,
        first)``: ``first`` is the result's first encoded chunk (None
        for an empty result), ``chunks`` yields the rest.

        A warm statement is answered here, on the loop: ``call`` is
        tried ``warm_only`` first, which either returns at once having
        recorded nothing, or is the query's whole execution — no
        binding, matching, waiting or operator.  The loop also encodes
        the first chunk when that is cheap (:data:`INLINE_ENCODE_BYTES`)
        and fetches it from the pool, like every later chunk, when it
        is not.

        Any other query blocks, so it runs on the worker pool, and the
        worker that executed it also encodes its first chunk: a small
        reply needs no second trip to the pool.  Meanwhile the event
        loop watches the connection (no frontend allows pipelining):
        any inbound event while the query runs means the client hung
        up (EOF) or broke protocol, so the query's session is
        cancelled — the query wakes if it is stalled on another's
        in-flight result, the producer unwinds through the recycler's
        abandon path (no cache publish) — and
        :class:`ClientDisconnected` tells the handler to drop the
        connection.
        """
        stream_id = query.seq
        result = call(warm_only=True)
        if result is not None:
            self._count("inline")
            table = result.table
            chunks = self._chunks(table, columnar=columnar,
                                  stream_id=stream_id)
            if (columnar and STRING not in table.schema.types) \
                    or table.nbytes() <= INLINE_ENCODE_BYTES:
                first = next(chunks, None)
            else:
                first = await self._loop.run_in_executor(
                    self._pool, next, chunks, None)
            return result, chunks, first

        def work():
            result = call()
            chunks = self._chunks(result.table, columnar=columnar,
                                  stream_id=stream_id)
            return result, chunks, next(chunks, None)

        future = asyncio.ensure_future(
            self._loop.run_in_executor(self._pool, work))
        watcher = self._loop.create_task(self._watch_disconnect(reader))
        try:
            await asyncio.wait({future, watcher},
                               return_when=asyncio.FIRST_COMPLETED)
            if future.done():
                return future.result()
            # the client vanished mid-execution: stop the producer
            query.session.cancel()
            try:
                await future
            except Exception:
                pass
            self._count("cancelled")
            raise ClientDisconnected
        finally:
            # await the cancellation: until it lands, the watcher still
            # owns the reader and the next frame read would collide
            watcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await watcher

    @staticmethod
    async def _watch_disconnect(reader) -> bytes:
        try:
            return await reader.read(1)
        except (ConnectionError, OSError):
            return b""

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    async def _stream_result(self, query, result, chunks, first, *,
                             writer, columnar: bool) -> None:
        """Drive one reply: a single ``result`` frame when ``first``
        holds every row and the client reads columnar frames, else a
        stream — ``result_header``, bounded ``result_chunk`` frames,
        ``result_end`` (or an ``error`` trailer if the query's token
        cancels mid-stream).

        :meth:`_framing`'s ``frame`` wraps the parts of one payload
        for the transport (length prefix on TCP, an HTTP chunk around a
        frame or an NDJSON line on HTTP), as parts too; ``head`` and
        ``tail`` are the transport's own bytes before the first and
        after the last frame.  Whatever is ready goes out in one
        ``write``, its parts joined once: the one-frame reply, or a
        stream's header with its first chunk.  Between chunks the
        ``drain()`` is the backpressure (a slow consumer throttles the
        producer instead of growing a server-side buffer), the token is
        checked before every chunk, and each further chunk is
        serialized on the worker pool only once the previous one has
        drained, so at most one encoded chunk exists at a time.  A
        ConnectionError from the writer propagates to the caller
        (client gone mid-stream).
        """
        token, stream_id = query.cancel_token, query.seq
        frame, head, tail = self._framing(columnar)
        table = result.table
        header = result_header_payload(
            stream_id, table, query_stats_payload(result.record))
        aborted = None if first is None else _aborted(token)
        if columnar and aborted is None \
                and (first is None or first[1] == table.num_rows):
            chunk = columnar_chunk(table, 0, 0) if first is None \
                else first[0]
            writer.write(b"".join(
                [head, *frame(result_parts(header, chunk)), tail]))
            await writer.drain()
            self._streamed(0 if first is None else 1)
            return
        out = [head, *frame([encode_json(header)])]
        sent_chunks = sent_rows = 0
        piece = first
        while piece is not None and aborted is None:
            payload, count = piece
            out += frame([payload])
            sent_chunks += 1
            sent_rows += count
            piece = None
            if sent_rows < table.num_rows:
                writer.write(b"".join(out))
                await writer.drain()
                out = []
                piece = await self._loop.run_in_executor(
                    self._pool, next, chunks, None)
                aborted = _aborted(token)
        trailer = dict(error_payload(aborted), stream=stream_id) \
            if aborted is not None \
            else result_end_payload(stream_id, chunks=sent_chunks,
                                    rows=sent_rows)
        writer.write(b"".join(out + frame([encode_json(trailer)])
                              + [tail]))
        await writer.drain()
        if aborted is not None:
            self._count("stream_aborted")
            return
        self._streamed(sent_chunks)

    def _streamed(self, chunks: int) -> None:
        """Count one completed reply of ``chunks`` chunks."""
        self._count("streams")
        self._count("stream_chunks", chunks)
        self.service.account_stream(self.frontend, chunks=chunks)


def _aborted(token) -> Exception | None:
    """The error that ends a reply whose token has tripped, or None."""
    if token.expired:
        return QueryTimeout("stream deadline expired")
    if token.cancelled:
        return QueryCancelled("stream cancelled")
    return None
