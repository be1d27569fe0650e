"""The shared serving core: connections, lifecycle, admission, drain,
streaming.

The TCP frontend (:class:`~repro.server.server.ReproServer`) and the
HTTP/JSON frontend (:class:`~repro.server.http.HttpServer`) are two
wire formats over the same machinery; :class:`ServingBase` owns
everything that must behave identically whichever port a client picks:

* **connections** — every accepted socket is one :class:`Connection`
  (an :class:`asyncio.Protocol`) whose buffer the frontend's parser
  takes requests off, in order; a request is answered in
  ``data_received`` with one ``write`` when it can be, else by one task
  that owns the connection until its reply is written;
* **lifecycle** — the accept loop on a dedicated thread, a worker
  thread pool for the blocking execution calls, and the graceful-drain
  shutdown sequence (stop accepting, bounded wait for in-flight work,
  cancel stragglers, await every connection's close);
* **admission control** — at most ``max_in_flight`` queries execute at
  once, up to ``max_queue`` more wait in arrival order; beyond that a
  typed :class:`~repro.errors.ServerOverloaded` reject, and during
  drain a typed :class:`~repro.errors.ServerUnavailable`.  A streaming
  reply holds its slot until the trailer is written, so drain
  accounting covers bytes-in-flight, not just queries-in-flight;
* **warm statements stay on the loop** — a query the statement cache
  and a full-plan hit of the recycler can answer
  (``ExecutionService.execute(warm_only=True)``: O(1) in the data, no
  waiting) is executed by the event loop itself, under the admission
  slot it holds; everything else goes to the worker pool;
* **one query-issuing path** — each connection owns a
  :class:`~repro.session.Session`, and both frontends issue every query
  through :meth:`ServingBase._query`, which begins it on that session
  (producer token, cancellation token from the request's ``timeout``
  and the connection's deadline), runs it and streams the reply;
* **disconnect-aware execution** — no frontend allows pipelining, so
  any byte or EOF while a query executes on the pool means the client
  hung up or broke protocol: it cancels the connection's session
  (:meth:`~repro.session.Session.cancel`) — the producer aborts at its
  next batch boundary, a query stalled on another's in-flight result
  wakes at once, and the recycler's abandon path guarantees no cache
  entry is published for it — and the connection closes;
* **streaming** — one driver turns a materialized result into one
  ``result`` frame when its rows fit in one columnar chunk, else a
  ``result_header`` / ``result_chunk``* / ``result_end`` sequence:
  chunks are serialized on the worker pool (the first by the thread
  that ran the query — unless that is the loop and the chunk is not
  cheap, :data:`INLINE_ENCODE_BYTES` — so a reply of one chunk is one
  ``write``), in the columnar or the JSON-lines encoding as the client
  can read, with the transport's flow control between chunks;
* **request validation** — client-supplied durations (``timeout``,
  ``deadline``) are checked once, here, and refused typed.

Subclasses implement ``_parse``, ``_dispatch``, ``_error_reply`` and
``_framing`` (their wire format) and set ``frontend`` (the
:class:`~repro.exec_service.ExecutionService` statistics label).
"""

from __future__ import annotations

import asyncio
import collections
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


#: the largest result, in payload bytes (``Table.nbytes()``), whose
#: first chunk the event loop encodes itself when the encoding touches
#: every value — NDJSON, or a columnar chunk with a STRING column.
#: Such a chunk costs 15-40 µs plus 8-29 ns a byte
#: (``docs/ARCHITECTURE.md``, "What runs on the loop thread"), so this
#: keeps the loop's share near 0.1 ms; a fixed-width columnar chunk is
#: copied buffers — work the loop repeats to join and write it — and
#: is encoded inline whatever its size.
INLINE_ENCODE_BYTES = 4096

#: while a task owns a connection or its transport is paused for
#: writing, callbacks only buffer, and past this many bytes the
#: transport stops reading until the parser wants more: a client that
#: talks out of turn or never reads its replies grows no buffer.
PAUSE_READING_BYTES = 256 * 1024

#: a warm result's first chunk the loop left to the pool to encode
_PENDING = object()


class Connection(asyncio.Protocol):
    """One client connection, touched by the event loop only: the
    inbound buffer the frontend parses, the session every query of the
    connection is issued on, write flow control, and the task that owns
    the connection while a request cannot be answered in a callback."""

    def __init__(self, server: "ServingBase") -> None:
        self.server = server
        self.transport = self.session = self.closed = None
        self.buffer = bytearray()
        #: the frontend parser's state between calls
        self.state = None
        #: the task answering a request; while set, callbacks buffer
        self.task = None
        #: while a query runs on the pool: the future a byte or EOF wakes
        self.busy = None
        #: close once the request in hand is answered
        self.close_after = False
        self.eof = self.lost = self.done = False
        self._reading = self.writing = True
        self._drained = None

    def connection_made(self, transport) -> None:
        server = self.server
        self.transport = transport
        self.closed = server._loop.create_future()
        self.session = server.db.connect(frontend=server.frontend)
        server._connections.add(self)
        server._count("connections_total")

    def data_received(self, data) -> None:
        self.buffer += data
        if self.task is None and self.writing:
            self.server._pump(self)
        elif self.busy is not None:
            self._wake()
        elif len(self.buffer) > PAUSE_READING_BYTES and self._reading:
            self._reading = False
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.eof = True
        if self.task is None:
            self.server._pump(self)
        else:
            self._wake()
        return True  # keep the transport open to answer what arrived

    def connection_lost(self, exc) -> None:
        self.lost = self.eof = True
        self._wake()
        self.resume_writing()
        self.closed.set_result(None)
        if self.task is None:
            self.close()

    def pause_writing(self) -> None:
        self.writing = False

    def resume_writing(self) -> None:
        self.writing = True
        if self._drained is not None and not self._drained.done():
            self._drained.set_result(None)
        if self.task is None and not self.lost:
            # not from inside the transport's write callback: a close
            # there would end the transport twice
            self.server._loop.call_soon(self.server._pump, self)

    def want_bytes(self) -> None:
        """The parser needs more bytes: read again if paused."""
        if not self._reading:
            self._reading = True
            self.transport.resume_reading()

    def _wake(self) -> None:
        if self.busy is not None and not self.busy.done():
            self.busy.set_result(None)

    async def drain(self) -> None:
        """Wait while the transport is over its high-water mark (no
        wait when it is not); ``ConnectionResetError`` once lost."""
        if self.transport.is_closing():
            await asyncio.sleep(0)  # let a pending connection_lost land
        while not self.writing:
            self._drained = self.server._loop.create_future()
            await self._drained
        if self.lost:
            raise ConnectionResetError("Connection lost")

    async def watch(self, future) -> bool:
        """Wait for the pool's ``future`` with the connection busy;
        False when a byte or EOF came first (no frontend pipelines, so
        the client hung up or broke protocol)."""
        if not self.eof:
            self.busy = self.server._loop.create_future()
            future.add_done_callback(lambda _: self._wake())
            try:
                await self.busy
            finally:
                self.busy = None
        return future.done()

    def run(self, work) -> None:
        """Hand the connection to a task awaiting ``work``, a coroutine
        that returns False when the connection should close."""
        self.task = self.server._loop.create_task(self._own(work))

    async def _own(self, work) -> None:
        keep = False
        try:
            keep = await work
        except Exception as exc:  # noqa: BLE001 - reported, then closed
            self.failed(exc)
        finally:
            self.task = None
            if keep and not self.lost and not self.close_after:
                self.server._pump(self)
            else:
                self.close()

    def failed(self, exc: Exception) -> None:
        """Report a request that failed unexpectedly, and close."""
        self.server._loop.call_exception_handler({
            "message": "serving a request failed", "exception": exc,
            "protocol": self})
        self.close()

    def close(self) -> None:
        """Drop the connection (idempotent): abort whatever its session
        still executes, so a dropped connection never pins an execution
        slot, and close the session and the transport."""
        if self.done:
            return
        self.done = True
        self.server._connections.discard(self)
        self.session.cancel()
        self.session.close()
        self.transport.close()


def query_stats_payload(record) -> dict | None:
    """The recycler's per-query counters as a wire-ready dict (the
    ``stats`` of a ``result_header``)."""
    if record is None:
        return None
    return {"query_id": record.query_id,
            **{name: getattr(record, name) for name in CLIENT_COUNTERS}}


class ServingBase:
    """Shared connections + lifecycle + admission + streaming for
    serving frontends."""

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

        # admission state (only the loop touches it): the slots taken,
        # and a future per query waiting for one, in arrival order
        self._active = 0
        self._waiters: collections.deque = collections.deque()
        self._idle = asyncio.Event()  # set while nothing executes
        self._connections: set[Connection] = set()

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
        self._idle.set()
        self._shutdown = asyncio.Event()
        try:
            # looked up per connection, so a test can wrap it
            self._server = await self._loop.create_server(
                lambda: self._make_connection(), self.host, self.port)
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()
        await self._shutdown.wait()
        # Flush in-flight accepts before closing the listener: a socket
        # the kernel handed over in this very iteration only gets its
        # transport (and its Connection) on later ticks, and closing the
        # server first would strand it half-built — never read, never
        # closed.  A few ticks land those connections, whose queries
        # are then rejected with a typed drain error.
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
            connection.transport.close()
        # close() only *schedules* connection_lost; if the loop exits
        # first, the accepted fd outlives it inside this process and a
        # client blocked on recv() for a reply never unblocks.  Await
        # the closes so no socket survives the loop.
        try:
            await asyncio.wait_for(asyncio.gather(
                *(connection.closed for connection in connections)),
                timeout=5.0)
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass
        self._stopped.set()

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
    def _make_connection(self) -> Connection:
        return Connection(self)

    def _parse(self, connection: Connection):
        """Take the next complete request off ``connection.buffer``, or
        return None until it has arrived; ``ProtocolError`` for framing
        that is malformed or past its limits."""
        raise NotImplementedError

    def _dispatch(self, connection: Connection, request) -> None:
        """Write ``request``'s reply, or :meth:`Connection.run` a task
        that will."""
        raise NotImplementedError

    def _error_reply(self, exc: BaseException, close: bool = False) -> bytes:
        """The reply to a request refused with ``exc`` before any reply
        stream started (``close``: the connection closes after it)."""
        raise NotImplementedError

    def _framing(self, columnar: bool) -> tuple:
        """``(frame, head, tail)`` of a streamed reply (see
        :meth:`_stream_result`)."""
        raise NotImplementedError

    def _pump(self, connection: Connection) -> None:
        """Answer the requests complete in ``connection``'s buffer, in
        order, until one needs a task or the transport pauses writing
        (the backpressure of replies written here: ``resume_writing``
        pumps again); close the connection on a framing error, at EOF,
        or when its request asked to."""
        while connection.task is None and not connection.done \
                and connection.writing:
            try:
                request = self._parse(connection)
            except ProtocolError as exc:
                connection.transport.write(self._error_reply(exc, close=True))
                connection.close()
                return
            if request is None:
                if connection.eof:
                    connection.close()
                else:
                    connection.want_bytes()
                return
            try:
                self._dispatch(connection, request)
            except Exception as exc:  # noqa: BLE001 - reported, closed
                connection.failed(exc)
                return
            if connection.task is None and connection.close_after:
                connection.close()

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
        if (self._waiters or self._active >= self.max_in_flight) \
                and len(self._waiters) >= self.max_queue:
            return ServerOverloaded(
                f"server at capacity ({self.max_in_flight} in flight,"
                f" {len(self._waiters)} queued)")
        return None

    def _release_slot(self) -> None:
        """Hand the slot to the first waiter, or free it; the ``_idle``
        event drives drain."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
        self._active -= 1
        if self._active == 0:
            self._idle.set()

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
    def _query(self, connection: Connection, sql: str, **request) -> None:
        """Admit ``sql`` (``request``: its ``label``, ``timeout`` and
        ``columnar``) and answer it — in this callback when a slot is
        free with nobody waiting and the reply is a warm statement's one
        cheap frame, else in a task."""
        rejected = self._admission_error()
        if rejected is not None:
            self._count("rejected")
            connection.transport.write(self._error_reply(rejected))
        elif self._waiters or self._active >= self.max_in_flight:
            waiter = self._loop.create_future()
            self._waiters.append(waiter)
            connection.run(self._queued(connection, waiter, sql, request))
        else:
            self._active += 1
            self._idle.clear()
            rest = self._issue(connection, sql, **request)
            if rest is not None:
                connection.run(rest)

    async def _queued(self, connection: Connection, waiter, sql: str,
                      request: dict) -> bool:
        try:
            await waiter  # the slot, handed over by _release_slot
        except BaseException:
            if waiter.cancelled():
                self._waiters.remove(waiter)
            else:  # handed a slot, but cancelled before taking it
                self._release_slot()
            raise
        rest = self._issue(connection, sql, **request)
        return rest is None or await rest

    def _issue(self, connection: Connection, sql: str, *, label: str,
               timeout: float | None, columnar: bool):
        """Under the slot the caller holds, issue ``sql`` on the
        connection's session and try it warm, on the loop.  Returns None
        when the reply is written (slot freed, query ended), else the
        coroutine that finishes it (:meth:`_execute`).  The query is
        registered with the session until its trailer is written, so a
        cancel of the session (disconnect, drain) reaches every phase."""
        issued = connection.session.begin(timeout=timeout)
        query = issued.__enter__()
        call = partial(query.execute, sql, label=label)
        warm = None
        try:
            result = call(warm_only=True)
            if result is not None:
                table, first = result.table, _PENDING
                chunks = self._chunks(table, columnar=columnar,
                                      stream_id=query.seq)
                if (columnar and STRING not in table.schema.types) \
                        or table.nbytes() <= INLINE_ENCODE_BYTES:
                    first = next(chunks, None)
                    reply = self._single_reply(query, result, first,
                                               columnar)
                    if reply is not None:
                        # counted first: a client that reads the reply
                        # and then the stats sees it
                        self._replied(0 if first is None else 1,
                                      served=1)
                        connection.transport.write(reply)
                        self._end(issued)
                        return None
                warm = result, chunks, first
        except ReproError as exc:
            self._count_query_error(exc)
            connection.transport.write(self._error_reply(exc))
            self._end(issued)
            return None
        except BaseException:
            self._end(issued)
            raise
        return self._execute(connection, issued, query, call, warm,
                             columnar=columnar)

    def _end(self, issued) -> None:
        """End a query :meth:`_issue` began, and free its slot."""
        issued.__exit__(None, None, None)
        self._release_slot()

    async def _execute(self, connection: Connection, issued, query, call,
                       warm, *, columnar: bool) -> bool:
        """The rest of a query :meth:`_issue` began — ``warm`` is its
        ``(result, chunks, first)`` when the loop answered it (``first``
        :data:`_PENDING` when the pool encodes it), else None — and its
        reply stream; False when the connection should drop.

        A query that is not warm runs on the worker pool, which also
        encodes its first chunk.  Meanwhile the connection is busy
        (:meth:`Connection.watch`): a client that hangs up or speaks out
        of turn has its query's session cancelled, and the producer
        unwinds through the recycler's abandon path (no cache publish)."""
        try:
            try:
                if warm is None:
                    future = self._loop.run_in_executor(
                        self._pool, self._work, call, columnar, query.seq)
                    if not await connection.watch(future):
                        query.session.cancel()
                        with contextlib.suppress(Exception):
                            await future
                        self._count("cancelled")
                        return False
                    result, chunks, first = future.result()
                else:
                    self._count("inline")
                    result, chunks, first = warm
                    if first is _PENDING:
                        first = await self._loop.run_in_executor(
                            self._pool, next, chunks, None)
            except ReproError as exc:
                self._count_query_error(exc)
                connection.transport.write(self._error_reply(exc))
                return not connection.lost
            except RuntimeError as exc:
                # pool shut down mid-drain: the query never started
                self._count("rejected")
                connection.transport.write(self._error_reply(
                    ServerUnavailable(str(exc))))
                return not connection.lost
            self._count("served")
            try:
                await self._stream_result(connection, query, result,
                                          chunks, first, columnar=columnar)
            except (ConnectionError, RuntimeError):
                # client gone mid-stream: stop producing chunks
                self._count("stream_aborted")
                query.cancel()
                return False
            return True
        finally:
            self._end(issued)

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

    def _work(self, call, columnar: bool, stream_id: int):
        """On a pool thread: execute, and encode the first chunk."""
        result = call()
        chunks = self._chunks(result.table, columnar=columnar,
                              stream_id=stream_id)
        return result, chunks, next(chunks, None)

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def _single_reply(self, query, result, first, columnar: bool):
        """The whole reply as one ``result`` frame's bytes, or None for
        a stream: a client of NDJSON, a ``first`` chunk without every
        row, or a query whose token has tripped."""
        table = result.table
        if not columnar or (first is not None
                            and (first[1] != table.num_rows
                                 or _aborted(query.cancel_token))):
            return None
        frame, head, tail = self._framing(columnar)
        header = result_header_payload(
            query.seq, table, query_stats_payload(result.record))
        chunk = columnar_chunk(table, 0, 0) if first is None else first[0]
        return b"".join([head, *frame(result_parts(header, chunk)), tail])

    async def _stream_result(self, connection: Connection, query, result,
                             chunks, first, *, columnar: bool) -> None:
        """Drive one reply: the :meth:`_single_reply` frame, else a
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
        ConnectionError from :meth:`Connection.drain` propagates to the
        caller (client gone mid-stream).
        """
        reply = self._single_reply(query, result, first, columnar)
        if reply is not None:
            connection.transport.write(reply)
            await connection.drain()
            self._replied(0 if first is None else 1)
            return
        token, stream_id = query.cancel_token, query.seq
        frame, head, tail = self._framing(columnar)
        table = result.table
        header = result_header_payload(
            stream_id, table, query_stats_payload(result.record))
        aborted = None if first is None else _aborted(token)
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
                connection.transport.write(b"".join(out))
                await connection.drain()
                out = []
                piece = await self._loop.run_in_executor(
                    self._pool, next, chunks, None)
                aborted = _aborted(token)
        trailer = dict(error_payload(aborted), stream=stream_id) \
            if aborted is not None \
            else result_end_payload(stream_id, chunks=sent_chunks,
                                    rows=sent_rows)
        connection.transport.write(b"".join(out + frame([encode_json(trailer)])
                                  + [tail]))
        await connection.drain()
        if aborted is not None:
            self._count("stream_aborted")
            return
        self._replied(sent_chunks)

    def _replied(self, chunks: int, *, served: int = 0) -> None:
        """Count one completed reply of ``chunks`` chunks — with its
        query as served inline when ``served`` (a reply written in its
        callback) — in one update."""
        with self._stats_lock:
            counters = self._counters
            counters["served"] += served
            counters["inline"] += served
            counters["streams"] += 1
            counters["stream_chunks"] += chunks
        self.service.account_stream(self.frontend, chunks=chunks)


def _aborted(token) -> Exception | None:
    """The error that ends a reply whose token has tripped, or None."""
    if token.expired:
        return QueryTimeout("stream deadline expired")
    if token.cancelled:
        return QueryCancelled("stream cancelled")
    return None
