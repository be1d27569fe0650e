"""The wire protocol: length-prefixed frames, results streamed in
columnar chunks.

One frame = a 4-byte big-endian payload length followed by that many
payload bytes.  A payload is UTF-8 JSON (first byte ``{``) except for
one kind: a ``result_chunk`` between this library's client and server
is a *columnar* frame — the table encoding of
:mod:`repro.columnar.shm` for a row slice of the result, recognisable
by its magic.  Requests are JSON objects with an ``"op"`` key
(``hello`` / ``query`` / ``ping`` / ``stats`` / ``configure``);
responses carry ``"ok": true`` plus op-specific fields, or
``"ok": false`` with a typed error (``{"type": "QueryTimeout",
"message": ...}``) that the client maps back onto the
:mod:`repro.errors` hierarchy.  The normative specification (frame
grammar, the columnar chunk layout, the streaming state machine, a
worked byte-level example) lives in ``docs/PROTOCOL.md``.

A query result is a ``result_header`` frame (schema, rowcount, stream
id, and ``stats`` — the recycler's
:class:`~repro.recycler.recycler.QueryRecord` counters, so clients can
observe reuse: a warm query shows ``num_inserted == 0``), zero or more
bounded ``result_chunk`` frames (at most ``chunk_rows`` rows and about
``chunk_bytes`` encoded bytes each — both far under the frame cap, so
a 100 MB result streams without ever building a 100 MB buffer), and a
``result_end`` trailer — or an ``error`` trailer if the stream aborts
mid-way.

Chunks come in two encodings of the same rows.  *Columnar*
(:func:`iter_columnar_chunks` / :func:`decode_columnar_chunk`): column
slices copied as raw buffers, never touching a Python value; what TCP
always sends and what HTTP sends to a client that asks for
``application/x-repro-frames``.  *JSON lines*
(:func:`iter_result_chunks` / :func:`encode_result_chunk`): what HTTP
sends everyone else (``curl``, other languages), one ``tolist()`` per
column and one encoder call per chunk.  Python's JSON handles
non-finite floats natively (``NaN`` / ``Infinity``), so both preserve
FLOAT64 results exactly.

The framing functions here are transport-agnostic: the asyncio server
reads frames with :func:`read_frame_async`, and both blocking clients
read theirs with :func:`read_frame` — from the socket on TCP, from the
chunked response body on HTTP.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Callable, Iterator

from ..columnar import shm
from ..columnar.table import Table
from ..errors import ProtocolError, ReproError, SchemaError, ServerError

#: frame header: unsigned 32-bit big-endian payload length.
HEADER = struct.Struct(">I")

#: refuse absurd frames instead of allocating unbounded buffers.
#: Results are chunked far below this, so only a malformed peer hits it.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: the one protocol version this build speaks; ``hello`` refuses any
#: other with a :class:`ProtocolError`.  (1 was single-frame JSON
#: results, 2 streamed JSON chunks; 3 streams columnar chunks.)
PROTOCOL_VERSION = 3

#: default streaming bounds: every ``result_chunk`` frame holds at most
#: this many rows / about this many encoded bytes (whichever is hit
#: first), keeping frames well under MAX_FRAME_BYTES and the event
#: loop's per-write work bounded.
DEFAULT_CHUNK_ROWS = 8192
DEFAULT_CHUNK_BYTES = 4 * 1024 * 1024

#: the HTTP media type of a length-prefixed frame stream (what
#: :class:`~repro.server.http.HttpClient` asks for in ``Accept``).
FRAMES_MEDIA_TYPE = "application/x-repro-frames"

#: compact JSON, one encoder for every frame (``json.dumps`` with
#: ``separators`` builds a fresh ``JSONEncoder`` per call).
_dumps = json.JSONEncoder(separators=(",", ":")).encode


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_json(message: dict) -> bytes:
    """One message as a compact UTF-8 JSON payload (no header)."""
    return _dumps(message).encode("utf-8")


def encode_raw_frame(payload: bytes) -> bytes:
    """Length-prefix an already-encoded payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte limit")
    return HEADER.pack(len(payload)) + payload


def encode_frame(message: dict) -> bytes:
    """One message as header + JSON payload bytes."""
    return encode_raw_frame(encode_json(message))


def decode_payload(payload: bytes) -> dict:
    """A JSON payload as its message object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return message


def decode_frame(payload: bytes) -> dict:
    """Any frame payload as a message: JSON as it is, a columnar chunk
    as ``{"kind": "result_chunk", "rows": [tuple, ...]}``."""
    if payload[:1] == b"{":
        return decode_payload(payload)
    return {"kind": "result_chunk", "rows": decode_columnar_chunk(payload)}


def error_payload(exc: BaseException) -> dict:
    """A typed error frame; the client's :func:`raise_error` inverts
    this mapping.  Mid-stream this doubles as the ``error`` trailer
    (the ``kind`` key disambiguates)."""
    return {"ok": False, "kind": "error",
            "error": {"type": type(exc).__name__, "message": str(exc)}}


# ----------------------------------------------------------------------
# result streams
# ----------------------------------------------------------------------
def result_header_payload(stream_id: int, table: Table,
                          stats: dict | None = None) -> dict:
    """The ``result_header`` frame: schema, rowcount (always known —
    the engine materializes before serving), stream id, and the
    recycler's per-query counters."""
    payload = {
        "ok": True,
        "kind": "result_header",
        "stream": stream_id,
        "columns": list(table.schema.names),
        "types": [t.name for t in table.schema.types],
        "rowcount": table.num_rows,
    }
    if stats is not None:
        payload["stats"] = stats
    return payload


def result_end_payload(stream_id: int, *, chunks: int, rows: int) -> dict:
    """The ``result_end`` trailer: chunk/row totals the client checks
    against what it received (a truncated stream can then never be
    mistaken for a complete one)."""
    return {"ok": True, "kind": "result_end", "stream": stream_id,
            "chunks": chunks, "rows": rows}


def _bounded_slices(num_rows: int, chunk_rows: int, chunk_bytes: int,
                    encode: Callable[[int, int], bytes],
                    ) -> Iterator[tuple[bytes, int]]:
    """Cut ``num_rows`` rows into ``(encode(start, stop), stop - start)``
    pieces of at most ``chunk_rows`` rows and ``chunk_bytes`` bytes (a
    piece always holds at least one row, so a row larger than
    ``chunk_bytes`` travels alone).  A slice that encodes too large is
    encoded again with proportionally fewer rows, and the next slices
    start from that row count, so uniform rows pay the retry once."""
    chunk_rows = step = max(1, int(chunk_rows))
    chunk_bytes = max(1, int(chunk_bytes))
    start = 0
    while start < num_rows:
        stop = min(start + step, num_rows)
        encoded = encode(start, stop)
        while len(encoded) > chunk_bytes and stop - start > 1:
            step = max(1, (stop - start) * chunk_bytes // len(encoded))
            stop = start + step
            encoded = encode(start, stop)
        yield encoded, stop - start
        if len(encoded) * 2 <= chunk_bytes:
            step = min(chunk_rows, step * 2)
        start = stop


def iter_columnar_chunks(table: Table, *,
                         chunk_rows: int = DEFAULT_CHUNK_ROWS,
                         chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                         ) -> Iterator[tuple[bytes, int]]:
    """The result as bounded columnar ``result_chunk`` payloads, each
    with its row count: the :mod:`repro.columnar.shm` encoding of a
    row slice, built from column slices."""
    names = table.schema.names

    def encode(start: int, stop: int) -> bytes:
        if stop - start == table.num_rows:
            return shm.encode_bytes(table)
        return shm.encode_bytes(Table(table.schema, {
            name: table.column(name)[start:stop] for name in names}))

    return _bounded_slices(table.num_rows, chunk_rows, chunk_bytes, encode)


def decode_columnar_chunk(payload: bytes) -> list[tuple]:
    """The rows of one columnar ``result_chunk`` payload, as tuples of
    plain Python values.  The payload is untrusted: anything that is
    not exactly one well-formed table raises :class:`ProtocolError`."""
    try:
        _, _, columns, end = shm.decode_columns(payload, copy=False)
    except SchemaError as exc:
        raise ProtocolError(f"malformed columnar chunk: {exc}") from exc
    if end != len(payload):
        raise ProtocolError(
            f"malformed columnar chunk: {len(payload)} bytes where the"
            f" table ends at {end}")
    return list(zip(*[column.tolist() for column in columns]))


class EncodedRows:
    """One chunk's rows as a JSON array of arrays; ``len()`` is the
    row count."""

    __slots__ = ("json", "count")

    def __init__(self, json: bytes, count: int) -> None:
        self.json = json
        self.count = count

    def __len__(self) -> int:
        return self.count


def encode_result_chunk(stream_id: int, seq: int,
                        encoded_rows: EncodedRows) -> bytes:
    """Assemble one JSON ``result_chunk`` payload around rows that
    :func:`iter_result_chunks` already serialized."""
    head = (f'{{"kind":"result_chunk","stream":{stream_id},'
            f'"seq":{seq},"rows":').encode("ascii")
    return head + encoded_rows.json + b"}"


def iter_result_chunks(table: Table, *,
                       chunk_rows: int = DEFAULT_CHUNK_ROWS,
                       chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                       ) -> Iterator[EncodedRows]:
    """Yield the result as bounded, JSON-encoded row lists (the bounds
    of :func:`_bounded_slices`).

    Per chunk: one ``tolist()`` per column (plain Python values out of
    numpy in one call), one ``zip``, one encoder call.  STRING columns
    are object arrays and may hold a stray numpy scalar, which
    ``.item()`` unwraps as the per-value encoder used to.
    """
    columns = [table.column(name) for name in table.schema.names]

    def plain(column) -> list:
        values = column.tolist()
        if column.dtype == object:
            values = [v.item() if hasattr(v, "item") else v for v in values]
        return values

    def encode(start: int, stop: int) -> bytes:
        rows = zip(*[plain(column[start:stop]) for column in columns])
        return _dumps(list(rows)).encode("utf-8")

    for encoded, count in _bounded_slices(table.num_rows, chunk_rows,
                                          chunk_bytes, encode):
        yield EncodedRows(encoded, count)


# ----------------------------------------------------------------------
# error mapping (client side)
# ----------------------------------------------------------------------
def raise_error(error: dict) -> None:
    """Re-raise a server error frame as the matching library exception
    (by class name within the :mod:`repro.errors` hierarchy; unknown
    types arrive as :class:`~repro.errors.ServerError`)."""
    import repro.errors as errors_module
    error_type = str(error.get("type", "ServerError"))
    message = str(error.get("message", "server error"))
    cls = getattr(errors_module, error_type, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        if issubclass(cls, ServerError):
            raise cls(message, error_type=error_type)
        raise cls(message)
    raise ServerError(message, error_type=error_type)


# ----------------------------------------------------------------------
# blocking framing (clients)
# ----------------------------------------------------------------------
def write_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


def _check_length(header: bytes) -> int:
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the"
                            f" {MAX_FRAME_BYTES}-byte limit")
    return length


def read_frame(read: Callable[[int], bytes]) -> dict:
    """Read and decode one frame through ``read(n)``, a blocking
    file-style read that returns ``n`` bytes, or fewer only when the
    stream has ended (a buffered socket file, an HTTP response body).
    A stream that ends inside a frame raises ``ConnectionError``."""
    header = read(HEADER.size)
    if len(header) < HEADER.size:
        raise ConnectionError("server closed the connection")
    length = _check_length(header)
    payload = read(length)
    if len(payload) < length:
        raise ConnectionError("server closed the connection mid-frame")
    return decode_frame(payload)


# ----------------------------------------------------------------------
# asyncio framing (server)
# ----------------------------------------------------------------------
async def read_frame_async(reader) -> dict:
    length = _check_length(await reader.readexactly(HEADER.size))
    return decode_payload(await reader.readexactly(length))
