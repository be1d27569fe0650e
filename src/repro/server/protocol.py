"""The wire protocol: length-prefixed frames; a result is one frame,
or a stream of schema-free columnar chunks.

One frame = a 4-byte big-endian payload length followed by that many
payload bytes.  A payload is UTF-8 JSON (first byte ``{``) except for
two binary kinds between this library's client and server, each
recognisable by its magic: a ``result`` frame and a columnar
``result_chunk``.  Requests are JSON objects with an ``"op"`` key
(``hello`` / ``query`` / ``ping`` / ``stats`` / ``configure``);
responses carry ``"ok": true`` plus op-specific fields, or
``"ok": false`` with a typed error (``{"type": "QueryTimeout",
"message": ...}``) that the client maps back onto the
:mod:`repro.errors` hierarchy.  The normative specification (frame
grammar, the binary layouts, the streaming state machine, a worked
byte-level example) lives in ``docs/PROTOCOL.md``.

A query result whose rows fit in one chunk — every short statement —
is a single ``result`` frame (:func:`encode_result`): a JSON header
(schema, rowcount, stream id, the chunk / row totals, and ``stats`` —
the recycler's :class:`~repro.recycler.recycler.QueryRecord`
counters, so clients can observe reuse: a warm query shows
``num_inserted == 0``) followed by the column values, decoded against
that header.  A larger result streams: a ``result_header`` frame, one
or more bounded ``result_chunk`` frames (at most ``chunk_rows`` rows
and about ``chunk_bytes`` encoded bytes each — both far under the
frame cap, so a 100 MB result streams without ever building a 100 MB
buffer), and a ``result_end`` trailer — or an ``error`` trailer if the
stream aborts mid-way.

Chunks come in two encodings of the same rows.  *Columnar*
(:func:`iter_columnar_chunks` / :func:`decode_columnar_chunk`): column
slices copied as raw buffers, never touching a Python value, and no
schema — the stream header carries it once; what TCP always sends and
what HTTP sends to a client that asks for
``application/x-repro-frames``.  *JSON lines*
(:func:`iter_result_chunks` / :func:`encode_result_chunk`): what HTTP
sends everyone else (``curl``, other languages) — header, chunks and
trailer whatever the result's size — one ``tolist()`` per column and
one encoder call per chunk.  Python's JSON handles non-finite floats
natively (``NaN`` / ``Infinity``), so both preserve FLOAT64 results
exactly.

The framing functions here are transport-agnostic: the asyncio server
parses its connections' buffers with :func:`frame_length` and
:func:`decode_payload`, and both blocking clients read theirs with
:func:`read_frame` — from the socket on TCP, from the chunked response
body on HTTP.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Callable, Iterator

from ..columnar import shm
from ..columnar import types as t
from ..columnar.table import Table
from ..errors import ProtocolError, ReproError, SchemaError, ServerError

#: frame header: unsigned 32-bit big-endian payload length.
HEADER = struct.Struct(">I")

#: refuse absurd frames instead of allocating unbounded buffers.
#: Results are chunked far below this, so only a malformed peer hits it.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: the one protocol version this build speaks; ``hello`` refuses any
#: other with a :class:`ProtocolError`.  (1 was single-frame JSON
#: results, 2 streamed JSON chunks, 3 streamed self-describing
#: columnar chunks; 4 answers a one-chunk result in one frame and
#: streams schema-free chunks.)
PROTOCOL_VERSION = 4

#: default streaming bounds: every ``result_chunk`` frame holds at most
#: this many rows / about this many encoded bytes (whichever is hit
#: first), keeping frames well under MAX_FRAME_BYTES and the event
#: loop's per-write work bounded.
DEFAULT_CHUNK_ROWS = 8192
DEFAULT_CHUNK_BYTES = 4 * 1024 * 1024

#: the HTTP media type of a length-prefixed frame stream (what
#: :class:`~repro.server.http.HttpClient` asks for in ``Accept``).
FRAMES_MEDIA_TYPE = "application/x-repro-frames"

#: the two binary payloads start with two little-endian int64s: a
#: ``result`` frame's magic and the byte length of its JSON header, a
#: columnar ``result_chunk``'s magic and its row count.
BINARY_PREFIX = struct.Struct("<2q")
RESULT_MAGIC = 0x34534552   # "RES4"
CHUNK_MAGIC = 0x344B4843    # "CHK4"
_RESULT_TAG = RESULT_MAGIC.to_bytes(8, "little")

#: the column types a header may name, by their exact wire names
_TYPES = {dtype.name: dtype for dtype in t.ALL_TYPES}

#: compact JSON, one encoder for every frame (``json.dumps`` with
#: ``separators`` builds a fresh ``JSONEncoder`` per call).
_dumps = json.JSONEncoder(separators=(",", ":")).encode


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_json(message: dict) -> bytes:
    """One message as a compact UTF-8 JSON payload (no header)."""
    return _dumps(message).encode("utf-8")


def _length_prefix(length: int) -> bytes:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte limit")
    return HEADER.pack(length)


def encode_raw_frame(payload: bytes) -> bytes:
    """Length-prefix an already-encoded payload."""
    return _length_prefix(len(payload)) + payload


def frame_parts(parts: list) -> list:
    """The frame of a payload given as consecutive bytes-like
    ``parts``, as parts too: a writer joins what one ``write`` sends
    once, instead of every layer copying the payload again."""
    return [_length_prefix(sum(map(len, parts))), *parts]


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


def decode_frame(payload: bytes, types=None) -> dict:
    """Any frame payload as a message: JSON as it is, a ``result``
    frame as its header with the decoded row tuples under ``"data"``
    (:func:`decode_result`), and a columnar chunk as ``{"kind":
    "result_chunk", "rows": [tuple, ...]}`` — decoded against
    ``types``, the stream header's column types
    (:func:`header_types`); a chunk outside a stream is refused."""
    if payload[:1] == b"{":
        return decode_payload(payload)
    if payload[:8] == _RESULT_TAG:
        header, rows = decode_result(payload)
        header["data"] = rows
        return header
    if types is None:
        raise ProtocolError("malformed frame: not JSON, not a result"
                            " frame, and no stream header before it")
    return {"kind": "result_chunk",
            "rows": decode_columnar_chunk(payload, types)}


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


def columnar_chunk(table: Table, start: int, stop: int) -> bytes:
    """Rows ``start:stop`` of ``table`` as one columnar
    ``result_chunk`` payload: the magic, the row count and the column
    values (:func:`repro.columnar.shm.encode_sections`) — no schema,
    which the stream header carries."""
    columns = [table.column(name) for name in table.schema.names]
    if stop - start != table.num_rows:
        columns = [column[start:stop] for column in columns]
    return b"".join([BINARY_PREFIX.pack(CHUNK_MAGIC, stop - start)]
                    + shm.encode_sections(columns, table.schema.types))


def iter_columnar_chunks(table: Table, *,
                         chunk_rows: int = DEFAULT_CHUNK_ROWS,
                         chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                         ) -> Iterator[tuple[bytes, int]]:
    """The result as bounded columnar ``result_chunk`` payloads
    (:func:`columnar_chunk`), each with its row count."""
    return _bounded_slices(table.num_rows, chunk_rows, chunk_bytes,
                           lambda start, stop:
                           columnar_chunk(table, start, stop))


def result_parts(header: dict, chunk: bytes) -> list:
    """The one-frame reply to a query, as consecutive parts (see
    :func:`frame_parts`): ``header`` (a :func:`result_header_payload`)
    as ``kind: "result"`` with the chunk / row totals a ``result_end``
    would carry, then the column values of ``chunk``, the columnar
    chunk that holds every row — a view that cuts off the chunk's own
    prefix, so the values are not copied here."""
    rows = BINARY_PREFIX.unpack_from(chunk)[1]
    text = encode_json(dict(header, kind="result",
                            chunks=1 if rows else 0, rows=rows))
    return [BINARY_PREFIX.pack(RESULT_MAGIC, len(text)), text,
            bytes(-len(text) % 8), memoryview(chunk)[BINARY_PREFIX.size:]]


def encode_result(header: dict, chunk: bytes) -> bytes:
    """The payload of :func:`result_parts` as one ``bytes``."""
    return b"".join(result_parts(header, chunk))


def header_types(header: dict) -> list[t.DataType]:
    """The column types a result header names, refused typed unless
    they are a list of known type names as many as its columns."""
    names = header.get("types")
    columns = header.get("columns")
    if not isinstance(names, list) or not isinstance(columns, list) \
            or len(names) != len(columns):
        raise ProtocolError("malformed result header: 'columns' and"
                            " 'types' must be lists of one length")
    try:
        return [_TYPES[name] for name in names]
    except (KeyError, TypeError):
        raise ProtocolError(f"malformed result header: unknown column"
                            f" type in {names!r}") from None


def _values(payload, pos: int, types, nrows: int,
            what: str) -> list[tuple]:
    """The rows of the column values from ``pos`` to the end of
    ``payload``; anything else there is refused."""
    try:
        columns, end = shm.decode_sections(payload, pos, types, nrows)
    except SchemaError as exc:
        raise ProtocolError(f"malformed {what}: {exc}") from exc
    if end != len(payload):
        raise ProtocolError(
            f"malformed {what}: {len(payload)} bytes where the"
            f" columns end at {end}")
    return list(zip(*columns))


def decode_result(payload: bytes) -> tuple[dict, list[tuple]]:
    """A ``result`` frame as ``(header, rows)``: the rows are tuples of
    plain Python values, ``header["rowcount"]`` of them.  The payload is
    untrusted: the header's length, its types and its rowcount are
    checked against the bytes present before anything is sized from
    them, and the column values must end where the payload does."""
    if len(payload) < BINARY_PREFIX.size:
        raise ProtocolError("malformed result frame: truncated prefix")
    magic, length = BINARY_PREFIX.unpack_from(payload)
    if magic != RESULT_MAGIC:
        raise ProtocolError(f"malformed result frame: magic {magic:#x}")
    start = BINARY_PREFIX.size
    if not 0 <= length <= len(payload) - start:
        raise ProtocolError(f"malformed result frame: a header of"
                            f" {length} bytes does not fit the payload")
    header = decode_payload(payload[start:start + length])
    types = header_types(header)
    nrows = header.get("rowcount")
    if type(nrows) is not int:
        raise ProtocolError(f"malformed result frame: rowcount {nrows!r}")
    pos = start + length + (-length % 8)
    return header, _values(payload, pos, types, nrows, "result frame")


def decode_columnar_chunk(payload: bytes, types) -> list[tuple]:
    """The rows of one columnar ``result_chunk`` payload, decoded
    against ``types`` (the stream header's, :func:`header_types`), as
    tuples of plain Python values.  The payload is untrusted: anything
    that is not exactly the magic, a row count and that many values of
    each column raises :class:`ProtocolError`."""
    if len(payload) < BINARY_PREFIX.size:
        raise ProtocolError("malformed columnar chunk: truncated prefix")
    magic, nrows = BINARY_PREFIX.unpack_from(payload)
    if magic != CHUNK_MAGIC:
        raise ProtocolError(f"malformed columnar chunk: magic {magic:#x}")
    return _values(payload, BINARY_PREFIX.size, types, nrows,
                   "columnar chunk")


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


def frame_length(header) -> int:
    """The payload length a frame's ``header`` (at least its first
    :data:`HEADER` bytes) announces, refused past the frame cap."""
    (length,) = HEADER.unpack_from(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the"
                            f" {MAX_FRAME_BYTES}-byte limit")
    return length


def read_frame(read: Callable[[int], bytes], types=None) -> dict:
    """Read and decode one frame through ``read(n)``, a blocking
    file-style read that returns ``n`` bytes, or fewer only when the
    stream has ended (a buffered socket file, an HTTP response body);
    ``types`` are the column types of the stream the frame belongs to,
    if any (:func:`decode_frame`).  A stream that ends inside a frame
    raises ``ConnectionError``."""
    header = read(HEADER.size)
    if len(header) < HEADER.size:
        raise ConnectionError("server closed the connection")
    length = frame_length(header)
    payload = read(length)
    if len(payload) < length:
        raise ConnectionError("server closed the connection mid-frame")
    return decode_frame(payload, types)
