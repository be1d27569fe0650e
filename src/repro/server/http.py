"""An HTTP/1.1 JSON frontend over the same serving core as TCP.

Same :class:`~repro.exec_service.ExecutionService`, same admission
control, deadlines, and graceful drain as
:class:`~repro.server.server.ReproServer` — only the wire format
differs, so a query is warm for HTTP clients the moment a TCP client
(or an in-process session) ran it, and vice versa.  Hand-rolled on
the serving core's asyncio protocol (no framework, no new
dependencies), with an incremental request parser; just enough HTTP/1.1
for the three endpoints:

``POST /v1/query``
    Body ``{"sql": ..., "label"?, "timeout"?}``.  The reply
    is a **chunked** HTTP body.  The request's ``Accept`` header picks
    the encoding: a client that accepts ``application/x-repro-frames``
    (:class:`HttpClient`) gets the TCP protocol's frames themselves —
    one ``result`` frame for a result that fits in a chunk, else a
    ``result_header``, bounded columnar ``result_chunk`` frames and a
    ``result_end`` trailer (or an ``error`` trailer mid-stream), so a
    100 MB result never exists as one buffer on either side; anyone
    else gets ``application/x-ndjson``, one JSON payload per line —
    header, JSON chunks, trailer, whatever the result's size — so
    ``curl -N`` shows rows as they ship.
    Errors *before* the stream starts map onto status codes:
    503 (overloaded / draining), 504 (server-side query timeout), 400
    (bad SQL or malformed request), 500 (anything else), each with the
    typed JSON error payload as the body.

``GET /healthz``
    200 ``{"ok": true, ...}`` while serving; 503 once draining — load
    balancers drop the instance before drain cuts it off.

``GET /metrics``
    ``Database.summary()`` as JSON: recycler cache/graph state plus the
    per-frontend service counters (queries, reuse, streams).

Disconnect behaviour matches the TCP path (both issue queries through
``ServingBase._query`` on the connection's
:class:`~repro.session.Session`): while a query executes on the worker
pool, any byte or EOF from the client cancels the session, the
producer stops at the next batch boundary and nothing is published to
the cache.  Pipelining is not supported (send one request per
connection at a time, as every mainstream HTTP client does); requests
already buffered when an answer starts are answered in order.
"""

from __future__ import annotations

import json

from ..errors import (QueryTimeout, ReproError, ServerError,
                      ServerOverloaded, ServerUnavailable)
from .base import Connection, ServingBase
from .client import ClientResult, StreamingResult, read_reply_frame
from .protocol import (FRAMES_MEDIA_TYPE, MAX_FRAME_BYTES, ProtocolError,
                       encode_json, error_payload, frame_parts,
                       raise_error)

#: request header block cap — nothing legitimate comes close.
_MAX_HEADER_BYTES = 64 * 1024

#: the endpoints and the one method each answers
_ENDPOINTS = {"/v1/query": "POST", "/healthz": "GET", "/metrics": "GET"}

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


def jsonable(value):
    """Recursively coerce a summary structure into plain JSON types
    (numpy scalars via ``.item()``, tuples/sets to lists, non-string
    dict keys to strings)."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _status_for(exc: BaseException) -> int:
    """Map a pre-stream failure onto an HTTP status (mid-stream
    failures arrive as an ``error`` trailer line instead — the 200 is
    already on the wire)."""
    if isinstance(exc, (ServerOverloaded, ServerUnavailable)):
        return 503
    if isinstance(exc, QueryTimeout):
        return 504
    if isinstance(exc, ProtocolError):
        return 400
    if isinstance(exc, ReproError) and not isinstance(exc, ServerError):
        return 400
    return 500


class _Head:
    """An HTTP request head parsed across ``data_received`` calls: the
    buffer offset of its first unread line, what its lines said, and —
    once its blank line arrived — its body's length."""

    __slots__ = ("pos", "method", "path", "headers", "total", "length")

    def __init__(self) -> None:
        self.pos = self.total = 0
        self.method = self.path = self.length = None
        self.headers: dict[str, str] = {}


class HttpServer(ServingBase):
    """The HTTP/JSON frontend for one :class:`~repro.db.Database`."""

    frontend = "http"

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _parse(self, connection: Connection):
        """One request's ``(method, path, headers, body)`` once its head
        and ``Content-Length`` body are in the buffer.  Lines are read
        as they complete; a line cut by EOF is read as it stands."""
        buffer = connection.buffer
        head = connection.state
        if head is None:
            if not buffer:
                return None
            head = connection.state = _Head()
        while head.length is None:
            end = buffer.find(b"\n", head.pos)
            if end >= 0:
                line = buffer[head.pos:end + 1]
                head.pos = end + 1
            elif connection.eof:
                line = buffer[head.pos:]
                head.pos = len(buffer)
                if not line and head.method is not None:
                    raise ProtocolError("truncated header block")
            else:
                if head.total + len(buffer) - head.pos > _MAX_HEADER_BYTES:
                    raise ProtocolError("header block too large")
                return None
            if head.method is None:
                parts = line.decode("latin-1").split()
                if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                    raise ProtocolError("malformed request line")
                head.method, head.path = parts[0].upper(), parts[1]
            elif line in (b"\r\n", b"\n"):
                head.length = _content_length(head.headers)
            else:
                head.total += len(line)
                if head.total > _MAX_HEADER_BYTES:
                    raise ProtocolError("header block too large")
                name, sep, value = line.decode("latin-1").partition(":")
                if not sep:
                    raise ProtocolError("malformed header line")
                head.headers[name.strip().lower()] = value.strip()
        end = head.pos + head.length
        if len(buffer) < end:
            return None
        body = bytes(buffer[head.pos:end])
        del buffer[:end]
        connection.state = None
        return head.method, head.path, head.headers, body

    def _dispatch(self, connection: Connection, request) -> None:
        method, path, headers, body = request
        connection.close_after = \
            headers.get("connection", "").lower() == "close"
        path = path.split("?", 1)[0]
        allowed = _ENDPOINTS.get(path)
        if allowed is None:
            connection.transport.write(self._response(404, error_payload(
                ProtocolError(f"no such endpoint: {path}"))))
        elif method != allowed:
            connection.transport.write(self._response(405, error_payload(
                ProtocolError(f"use {allowed} {path}"))))
        elif path == "/v1/query":
            self._handle_query(connection, body, columnar=FRAMES_MEDIA_TYPE
                               in headers.get("accept", ""))
        elif path == "/healthz":
            connection.transport.write(self._response(
                503 if self._draining else 200,
                {"ok": not self._draining, "draining": self._draining,
                 "frontend": self.frontend}))
        else:
            connection.run(self._metrics(connection))

    async def _metrics(self, connection: Connection) -> bool:
        summary = await self._loop.run_in_executor(
            self._pool, lambda: jsonable(self.db.summary()))
        connection.transport.write(self._response(200, summary))
        return True

    @staticmethod
    def _response(status: int, payload: dict, close: bool = False) -> bytes:
        """One complete (non-streamed) JSON response."""
        body = encode_json(payload)
        return (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                + ("Connection: close\r\n" if close else "")
                + "\r\n").encode("latin-1") + body

    # ------------------------------------------------------------------
    # the query endpoint
    # ------------------------------------------------------------------
    def _handle_query(self, connection: Connection, body: bytes,
                      columnar: bool) -> None:
        try:
            request = json.loads(body.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("body must be a JSON object")
            sql = request["sql"]
            if not isinstance(sql, str):
                raise ValueError("'sql' must be a string")
            timeout = self._seconds(
                request.get("timeout", self.default_timeout), "timeout")
        except (ValueError, KeyError, UnicodeDecodeError,
                ProtocolError) as exc:
            connection.transport.write(self._response(400, error_payload(
                ProtocolError(f"bad query body: {exc}"))))
            return
        self._query(connection, sql, label=str(request.get("label", "")),
                    timeout=timeout, columnar=columnar)

    def _error_reply(self, exc: BaseException, close: bool = False) -> bytes:
        return self._response(_status_for(exc), error_payload(exc), close)

    def _framing(self, columnar: bool) -> tuple:
        media_type = FRAMES_MEDIA_TYPE if columnar \
            else "application/x-ndjson"
        head = (f"HTTP/1.1 200 OK\r\n"
                f"Content-Type: {media_type}\r\n"
                f"Transfer-Encoding: chunked\r\n"
                f"\r\n").encode("latin-1")
        return (_frame_chunk if columnar else _ndjson_chunk), head, \
            b"0\r\n\r\n"


def _content_length(headers: dict[str, str]) -> int:
    """A request's body length, refused unless it is a sane integer."""
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ProtocolError("bad Content-Length") from None
    if length < 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError("unreasonable Content-Length")
    return length


def _http_chunk(parts: list) -> list:
    """``parts`` (bytes-like) as the data of one HTTP chunk."""
    return [b"%x\r\n" % sum(map(len, parts)), *parts, b"\r\n"]


def _frame_chunk(parts: list) -> list:
    """One payload as a length-prefixed frame inside one HTTP chunk."""
    return _http_chunk(frame_parts(parts))


def _ndjson_chunk(parts: list) -> list:
    """One JSON payload as one NDJSON line inside one HTTP chunk."""
    return _http_chunk([*parts, b"\n"])


# ----------------------------------------------------------------------
# blocking client
# ----------------------------------------------------------------------
class HttpClient:
    """A blocking client for :class:`HttpServer` built on
    :mod:`http.client` (stdlib only) — same surface as the TCP
    :class:`~repro.server.client.ServerClient` where it overlaps:
    ``query`` returns a :class:`~repro.server.client.ClientResult`,
    ``execute_stream`` a :class:`~repro.server.client.StreamingResult`
    over the frames in the chunked response body (it asks for
    ``application/x-repro-frames``, so chunks arrive columnar)."""

    def __init__(self, host: str, port: int, *,
                 timeout: float | None = None) -> None:
        import http.client
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port,
                                                timeout=timeout)
        self._closed = False

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._conn.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _get_json(self, path: str) -> tuple[int, dict]:
        if self._closed:
            raise ServerUnavailable("client is closed")
        try:
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        except (ConnectionError, OSError, EOFError) as exc:
            self._conn.close()
            raise ServerUnavailable(
                f"cannot reach http server at {self.host}:{self.port}:"
                f" {exc}") from exc
        return response.status, payload

    def healthz(self) -> dict:
        """The health endpoint's JSON (whatever the status code, so
        callers can observe draining)."""
        return self._get_json("/healthz")[1]

    def metrics(self) -> dict:
        """``Database.summary()`` as served by ``GET /metrics``."""
        status, payload = self._get_json("/metrics")
        if status != 200:
            raise_error(payload.get("error") or {})
        return payload

    def query(self, sql: str, *, label: str = "",
              timeout: float | None = None) -> ClientResult:
        """Execute ``sql``; the chunked reply is reassembled into one
        :class:`ClientResult` (rows identical to TCP)."""
        return self.execute_stream(sql, label=label,
                                   timeout=timeout).result()

    def execute_stream(self, sql: str, *, label: str = "",
                       timeout: float | None = None) -> StreamingResult:
        """POST the query and return once the reply's first frame
        arrives (the ``result_header``, or the whole ``result``) —
        rows then stream with bounded client-side memory.
        Closing the stream before exhaustion drops the connection,
        which cancels the server-side producer."""
        from http.client import HTTPException  # loaded by __init__
        if self._closed:
            raise ServerUnavailable("client is closed")
        body = {"sql": sql}
        if label:
            body["label"] = label
        if timeout is not None:
            body["timeout"] = timeout
        try:
            self._conn.request(
                "POST", "/v1/query",
                body=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json",
                         "Accept": FRAMES_MEDIA_TYPE})
            response = self._conn.getresponse()
            if response.status != 200:
                payload = json.loads(response.read().decode("utf-8"))
                raise_error(payload.get("error") or {})
        except (ConnectionError, OSError, EOFError) as exc:
            self._conn.close()
            raise ServerUnavailable(
                f"cannot reach http server at {self.host}:{self.port}:"
                f" {exc}") from exc

        def read(n: int) -> bytes:
            # a body cut short is http.client.IncompleteRead, which is
            # not an OSError: hand the frame reader what it expects
            try:
                return response.read(n)
            except HTTPException as exc:
                raise ConnectionError(f"truncated response: {exc!r}") \
                    from exc

        def next_frame(types=None) -> dict:
            return read_reply_frame(read, self._conn.close,
                                    f"{self.host}:{self.port}", types)

        header = next_frame()
        if not header.get("ok"):
            raise_error(header.get("error") or {})
        # on_finish drains the chunked-body terminator so http.client
        # marks the response complete and keep-alive reuse works.
        return StreamingResult(header, next_frame, self._conn.close,
                               on_finish=response.read)
