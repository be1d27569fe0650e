"""A small blocking TCP client for :class:`~repro.server.ReproServer`.

One socket, one request at a time (the protocol is strictly
request/response per connection; open several clients for concurrency).
Errors come back typed: the server's error frames are re-raised as the
matching :mod:`repro.errors` class, so a query that times out on the
server raises :class:`~repro.errors.QueryTimeout` here exactly as it
would in process, and an admission reject raises
:class:`~repro.errors.ServerOverloaded`.

On connect the client sends a ``hello``, which fails typed
(:class:`~repro.errors.ProtocolError`) if the server speaks
another protocol version.  :meth:`ServerClient.query` returns the
fully assembled :class:`ClientResult` — whether the rows came in one
``result`` frame or streamed in chunks is invisible.
:meth:`ServerClient.execute_stream` instead exposes the stream as an
iterator of rows (:class:`StreamingResult`), so a 100 MB result can be
consumed with bounded client-side memory, or abandoned mid-way (closing
the stream closes the connection, which cancels the producer
server-side).
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..errors import ServerError, ServerUnavailable
from .protocol import (PROTOCOL_VERSION, header_types, raise_error,
                       read_frame, write_frame)


def read_reply_frame(read: Callable[[int], bytes],
                     close: Callable[[], None], peer: str,
                     types=None) -> dict:
    """The next reply frame through ``read`` (see
    :func:`~repro.server.protocol.read_frame`; ``types`` decode a
    stream's columnar chunks) — the one frame reader of both clients.
    A connection that breaks or ends inside a reply is closed and
    surfaces as :class:`ServerUnavailable`."""
    try:
        return read_frame(read, types)
    except (OSError, EOFError) as exc:
        close()
        raise ServerUnavailable(
            f"connection to {peer} lost: {exc}") from exc


@dataclass
class ClientResult:
    """A query result decoded from the wire: schema names/types, plain
    Python row tuples, and the recycler's per-query counters."""

    columns: list[str]
    types: list[str]
    rows: list[tuple]
    stats: dict = field(default_factory=dict)
    #: how many chunks carried the rows (a one-frame reply counts as
    #: one chunk, or none when it is empty) — observability for tests
    #: and benchmarks.
    chunks: int = 0

    @property
    def num_rows(self) -> int:
        return len(self.rows)


class StreamingResult:
    """An iterator over a query result.

    Yields one row tuple at a time; at any moment the client buffers at
    most one chunk worth of rows.  Schema (``columns`` / ``types``),
    ``rowcount``, and the recycler ``stats`` are available immediately
    (they travel in the reply's first frame), so time to first row
    does not depend on result size.  A result that fits in one chunk
    arrived whole in that first frame, a ``result``; a larger one
    follows its ``result_header`` in chunks.

    The stream must be consumed or closed; it is a context manager::

        with client.execute_stream("SELECT ...") as stream:
            for row in stream:
                ...

    Closing before exhaustion abandons the stream by closing the
    underlying connection — the server notices and stops producing
    chunks.  A truncated stream can never be mistaken for a complete
    one: the totals of the trailer (or of the one ``result`` frame) are
    checked against what arrived, and a missing trailer raises.

    The frame source ``next_frame(types)`` returns the next decoded
    frame (:func:`~repro.server.protocol.decode_frame`: a chunk's
    ``rows`` are tuples when it travelled columnar, lists when as
    JSON), given the column types the header names, so the same class
    drives the TCP socket and the HTTP response body.
    """

    def __init__(self, header: dict, next_frame: Callable[[list], dict],
                 on_abort: Callable[[], None],
                 on_finish: Callable[[], None] | None = None) -> None:
        kind = header.get("kind")
        if kind not in ("result", "result_header"):
            raise ServerError(f"expected a result or result_header"
                              f" frame, got {kind!r}")
        self.columns: list[str] = list(header.get("columns", []))
        self.types: list[str] = list(header.get("types", []))
        self.rowcount: int = int(header.get("rowcount", 0))
        self.stats: dict = dict(header.get("stats", {}))
        self.stream_id = header.get("stream")
        #: chunk count, filled in once the trailer arrives.
        self.chunks: int = 0
        #: a one-frame reply: the frame, whose rows are all there is
        self._whole = header if kind == "result" else None
        self._dtypes = None if self._whole is not None \
            else header_types(header)
        self._next_frame = next_frame
        self._on_abort = on_abort
        self._on_finish = on_finish
        self._exhausted = False
        self._closed = False

    def __iter__(self) -> Iterator[tuple]:
        if self._whole is not None and not self._exhausted:
            rows = self._whole["data"]
            self._finish(self._whole, 1 if rows else 0, len(rows))
            yield from rows
            return
        chunks = 0
        rows = 0
        while not self._exhausted:
            frame = self._next_frame(self._dtypes)
            kind = frame.get("kind")
            if kind == "result_chunk":
                chunks += 1
                chunk = frame.get("rows", [])
                if chunk and type(chunk[0]) is not tuple:   # JSON rows
                    chunk = list(map(tuple, chunk))
                rows += len(chunk)
                yield from chunk
            elif kind == "result_end":
                self._finish(frame, chunks, rows)
            elif not frame.get("ok"):
                # terminal error trailer: the stream is over
                self._exhausted = True
                if self._on_finish is not None:
                    self._on_finish()
                raise_error(frame.get("error") or {})
            else:
                self._exhausted = True
                raise ServerError(
                    f"unexpected frame mid-stream: {kind!r}")

    def _finish(self, totals: dict, chunks: int, rows: int) -> None:
        """End the stream: ``chunks`` chunks of ``rows`` rows arrived,
        which must be the ``totals`` frame's count."""
        self._exhausted = True
        self.chunks = chunks
        if self._on_finish is not None:
            self._on_finish()
        if totals.get("chunks") != chunks or totals.get("rows") != rows:
            raise ServerError(
                f"truncated stream: trailer promises"
                f" {totals.get('chunks')} chunks /"
                f" {totals.get('rows')} rows, received"
                f" {chunks} / {rows}")

    def fetchall(self) -> list[tuple]:
        """Drain the remainder into a list (convenience for tests)."""
        return list(self)

    def result(self) -> ClientResult:
        """Drain the stream into one assembled :class:`ClientResult`."""
        rows = self.fetchall()
        return ClientResult(columns=self.columns, types=self.types,
                            rows=rows, stats=self.stats,
                            chunks=self.chunks)

    def close(self) -> None:
        """Finish with the stream.  If it was not fully consumed, the
        underlying connection is closed to stop the producer."""
        if self._closed:
            return
        self._closed = True
        if self._whole is not None and not self._exhausted:
            # every row arrived: nothing is left to stop
            self._exhausted = True
            if self._on_finish is not None:
                self._on_finish()
        elif not self._exhausted:
            self._on_abort()

    def __enter__(self) -> "StreamingResult":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServerClient:
    """Blocking client: ``query`` / ``execute_stream`` / ``ping`` /
    ``stats`` / ``configure``.

    Usable as a context manager::

        with ServerClient(host, port) as client:
            result = client.query("SELECT 1 AS x")
    """

    def __init__(self, host: str, port: int, *,
                 connect_timeout: float | None = 10.0) -> None:
        self.host = host
        self.port = port
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout)
        except OSError as exc:
            raise ServerUnavailable(
                f"cannot reach server at {host}:{port}: {exc}") from exc
        # queries block until the server responds (or rejects).
        self._sock.settimeout(None)
        self._reader = self._sock.makefile("rb")
        self._closed = False
        try:
            reply = self._request({"op": "hello",
                                   "version": PROTOCOL_VERSION})
        except ServerError:  # refused (another protocol version)
            self.close()
            raise
        self.protocol_version: int = reply["version"]
        #: the streaming bounds the server advertised in its hello reply.
        self.server_limits: dict = {
            k: reply[k] for k in ("chunk_rows", "chunk_bytes",
                                  "max_frame_bytes") if k in reply}

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._reader.close()
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read(self, types=None) -> dict:
        return read_reply_frame(self._reader.read, self.close,
                                f"{self.host}:{self.port}", types)

    def _request(self, message: dict) -> dict:
        if self._closed:
            raise ServerUnavailable("client is closed")
        try:
            write_frame(self._sock, message)
        except (ConnectionError, OSError) as exc:
            self.close()
            raise ServerUnavailable(
                f"connection to {self.host}:{self.port} lost: {exc}"
            ) from exc
        response = self._read()
        if not response.get("ok"):
            raise_error(response.get("error") or {})
        return response

    @staticmethod
    def _query_message(sql: str, label: str,
                       timeout: float | None) -> dict:
        message: dict = {"op": "query", "sql": sql}
        if label:
            message["label"] = label
        if timeout is not None:
            message["timeout"] = timeout
        return message

    def query(self, sql: str, *, label: str = "",
              timeout: float | None = None) -> ClientResult:
        """Execute ``sql`` on the server and return the decoded result.

        ``timeout`` is enforced server-side (maps onto the query's
        CancellationToken; expiry raises
        :class:`~repro.errors.QueryTimeout` here).  The reply arrives
        chunked and is reassembled here.
        """
        return self.execute_stream(sql, label=label,
                                   timeout=timeout).result()

    def execute_stream(self, sql: str, *, label: str = "",
                       timeout: float | None = None) -> StreamingResult:
        """Execute ``sql`` and iterate the result incrementally.

        Returns once the reply's first frame arrives — a
        ``result_header`` before any rows, or the one ``result`` frame
        of a result that fits in a chunk — so large results start
        flowing immediately and the client never holds more than one
        chunk.  The connection is dedicated to the
        stream until it is exhausted or closed.
        """
        response = self._request(
            self._query_message(sql, label, timeout))
        return StreamingResult(response, self._read, self.close)

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("pong"))

    def stats(self) -> dict:
        """Server admission counters plus the service-layer summary."""
        response = self._request({"op": "stats"})
        return {"server": response.get("stats", {}),
                "service": response.get("service", {})}

    def configure(self, *, deadline: float | None = None) -> None:
        """Set per-connection defaults: ``deadline`` (seconds of budget
        shared by everything that follows on this connection)."""
        message: dict = {"op": "configure"}
        if deadline is not None:
            message["deadline"] = deadline
        self._request(message)
