"""The asyncio TCP server: many remote clients, one shared recycler.

The paper's "millions of users" setting (SkyServer) is many concurrent
clients whose queries meet in one recycler.  :class:`ReproServer` is
that front door: an asyncio TCP accept loop (run on a dedicated thread,
so it composes with blocking callers and tests) speaking the
length-prefixed JSON protocol of :mod:`.protocol`, executing queries on
a worker thread pool through the shared
:class:`~repro.exec_service.ExecutionService`.  Lifecycle, admission
control, drain, and the streaming driver live in
:class:`~repro.server.base.ServingBase`, shared with the HTTP frontend
(:mod:`repro.server.http`); this module is only the TCP wire format.

**One reply path.**  Every query reply is a ``result_header`` /
``result_chunk``* / ``result_end`` stream of bounded frames (see
``docs/PROTOCOL.md``) whose chunks are columnar, with backpressure via
``drain()`` and disconnect detection while the query executes.  The
``hello`` op only checks that client and server speak the same
protocol version and advertises the streaming bounds.

**Admission control and backpressure.**  At most ``max_in_flight``
queries execute at once; up to ``max_queue`` more may wait for a slot.
A query arriving beyond that is *rejected immediately* with a typed
:class:`~repro.errors.ServerOverloaded` error frame — the server never
buffers unboundedly and never hangs, so an overloaded server stays
responsive (rejects cost microseconds).  During drain, new queries get
:class:`~repro.errors.ServerUnavailable`.

**Deadlines.**  Each connection owns a :class:`~repro.session.Session`
that every query is issued through.  A per-request ``timeout`` and a
per-connection deadline (``configure`` op, seconds of budget for
everything that follows: the session's ``deadline``) map onto one
:class:`~repro.engine.cancellation.CancellationToken` — the earlier
bound wins, exactly the session semantics.  Client disconnect cancels
the session's in-flight queries — the disconnect is noticed *while*
the query executes (the loop watches the socket), so an abandoned
query stops at its next batch boundary (or wakes, if it is stalled on
another query's in-flight result) and publishes nothing.

**Drain.**  ``stop()`` stops accepting, lets in-flight queries (and
in-flight streams) finish inside ``drain_seconds``, then cancels
stragglers — a graceful drain by default, an abort when the budget is
zero.
"""

from __future__ import annotations

import asyncio
import time

from .base import Connection, ServingBase
from .protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION, ProtocolError,
                       encode_frame, error_payload, frame_parts,
                       read_frame_async)


class ReproServer(ServingBase):
    """A TCP serving frontend for one :class:`~repro.db.Database`."""

    frontend = "server"

    # ------------------------------------------------------------------
    # connection handling (event-loop thread)
    # ------------------------------------------------------------------
    async def _handle_connection(self, connection: Connection,
                                 reader, writer) -> None:
        while True:
            try:
                request = await read_frame_async(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            except ProtocolError as exc:
                await self._send(writer, error_payload(exc))
                break
            if not await self._dispatch(connection, request, reader,
                                        writer):
                break

    async def _send(self, writer, message: dict) -> bool:
        try:
            writer.write(encode_frame(message))
            await writer.drain()
            return True
        except (ConnectionError, RuntimeError):
            return False

    async def _dispatch(self, connection: Connection, request: dict,
                        reader, writer) -> bool:
        """Handle one request; returns False to drop the connection."""
        op = request.get("op")
        if op == "query":
            return await self._handle_query(connection, request, reader,
                                            writer)
        if op == "hello":
            return await self._send(writer, self._handle_hello(request))
        if op == "ping":
            return await self._send(writer, {
                "ok": True, "pong": True, "draining": self._draining})
        if op == "stats":
            return await self._send(writer, {
                "ok": True, "stats": self.stats(),
                "service": self.service.summary()})
        if op == "configure":
            return await self._send(
                writer, self._handle_configure(connection, request))
        return await self._send(
            writer, error_payload(ProtocolError(f"unknown op: {op!r}")))

    def _handle_hello(self, request: dict) -> dict:
        """The version check: this build speaks exactly
        ``PROTOCOL_VERSION``, and a client that names another learns so
        before it sends a query.  The reply advertises the server's
        streaming bounds so clients can size their buffers."""
        requested = request.get("version")
        if requested != PROTOCOL_VERSION or isinstance(requested, bool):
            return error_payload(ProtocolError(
                f"this server speaks protocol version"
                f" {PROTOCOL_VERSION}, not {requested!r}"))
        return {"ok": True, "version": PROTOCOL_VERSION,
                "chunk_rows": self.chunk_rows,
                "chunk_bytes": self.chunk_bytes,
                "max_frame_bytes": MAX_FRAME_BYTES}

    def _handle_configure(self, connection: Connection,
                          request: dict) -> dict:
        """Per-connection settings: ``deadline`` (seconds of budget for
        everything that follows on this connection: the session's
        deadline, which every query's CancellationToken inherits).
        Keys the server does not read are ignored."""
        try:
            deadline = self._seconds(request.get("deadline"), "deadline")
        except ProtocolError as exc:
            return error_payload(exc)
        if deadline is not None:
            connection.session.deadline = time.monotonic() + deadline
        return {"ok": True}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    async def _handle_query(self, connection: Connection,
                            request: dict, reader, writer) -> bool:
        # Admission control: a free slot admits immediately; a full
        # server with queue headroom waits; beyond that, typed reject.
        rejected = self._admission_error()
        if rejected is not None:
            self._count("rejected")
            return await self._send(writer, error_payload(rejected))
        async with self._slot():
            sql = request.get("sql")
            try:
                if not isinstance(sql, str):
                    raise ProtocolError("query needs 'sql' text")
                timeout = self._seconds(
                    request.get("timeout", self.default_timeout),
                    "timeout")
            except ProtocolError as exc:
                return await self._send(writer, error_payload(exc))
            return await self._execute(
                connection, sql, label=str(request.get("label", "")),
                timeout=timeout, columnar=True, reader=reader, writer=writer)

    async def _reply_error(self, writer, exc: BaseException) -> bool:
        return await self._send(writer, error_payload(exc))

    def _framing(self, columnar: bool) -> tuple:
        return frame_parts, b"", b""

