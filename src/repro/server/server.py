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

**Frames.**  A request is a 4-byte length prefix (refused at once,
typed, past ``MAX_FRAME_BYTES``) and a JSON object, answered in arrival
order.  A result that fits in one chunk is one ``result`` frame, a
larger one a ``result_header`` / ``result_chunk``* / ``result_end``
stream of bounded columnar frames (see ``docs/PROTOCOL.md``).  ``hello``
only checks that client and server speak the same protocol version and
advertises the streaming bounds.

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
the query executes on the worker pool (any byte or EOF then is a
hang-up), so an abandoned query stops at its next batch boundary (or
wakes, if it is stalled on another query's in-flight result) and
publishes nothing.

**Drain.**  ``stop()`` stops accepting, lets in-flight queries (and
in-flight streams) finish inside ``drain_seconds``, then cancels
stragglers — a graceful drain by default, an abort when the budget is
zero.
"""

from __future__ import annotations

import time

from .base import Connection, ServingBase
from .protocol import (HEADER, MAX_FRAME_BYTES, PROTOCOL_VERSION,
                       ProtocolError, decode_payload, encode_frame,
                       error_payload, frame_length, frame_parts)


class ReproServer(ServingBase):
    """A TCP serving frontend for one :class:`~repro.db.Database`."""

    frontend = "server"

    # ------------------------------------------------------------------
    # connection handling (event-loop thread)
    # ------------------------------------------------------------------
    def _parse(self, connection: Connection) -> dict | None:
        buffer = connection.buffer
        if len(buffer) < HEADER.size:
            return None
        end = HEADER.size + frame_length(buffer)
        if len(buffer) < end:
            return None
        payload = buffer[HEADER.size:end]
        del buffer[:end]
        return decode_payload(payload)

    def _dispatch(self, connection: Connection, request: dict) -> None:
        op = request.get("op")
        if op == "query":
            sql = request.get("sql")
            try:
                if not isinstance(sql, str):
                    raise ProtocolError("query needs 'sql' text")
                timeout = self._seconds(
                    request.get("timeout", self.default_timeout),
                    "timeout")
            except ProtocolError as exc:
                connection.transport.write(self._error_reply(exc))
                return
            self._query(connection, sql, label=str(request.get("label", "")),
                        timeout=timeout, columnar=True)
            return
        if op == "ping":
            reply = {"ok": True, "pong": True, "draining": self._draining}
        elif op == "hello":
            reply = self._handle_hello(request)
        elif op == "stats":
            reply = {"ok": True, "stats": self.stats(),
                     "service": self.service.summary()}
        elif op == "configure":
            reply = self._handle_configure(connection, request)
        else:
            reply = error_payload(ProtocolError(f"unknown op: {op!r}"))
        connection.transport.write(encode_frame(reply))

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

    def _error_reply(self, exc: BaseException, close: bool = False) -> bytes:
        return encode_frame(error_payload(exc))

    def _framing(self, columnar: bool) -> tuple:
        return frame_parts, b"", b""
