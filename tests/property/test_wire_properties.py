"""Wire-codec properties: whichever encoding carries a result —
columnar frames over TCP, columnar frames over HTTP (one ``result``
frame or a stream of schema-free chunks), NDJSON over HTTP — the client
receives the same rows and chunk count, and they are the rows of
``Table.to_rows()`` and of the in-process result; a binary payload
that is not exactly what its header promises is refused typed before
anything is sized from it.
"""

from __future__ import annotations

import http.client
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, RecyclerConfig
from repro.columnar import types as t
from repro.columnar.table import Schema, Table
from repro.server import (HttpClient, HttpServer, ProtocolError,
                          ReproServer, ServerClient)
from repro.server.protocol import (columnar_chunk, decode_columnar_chunk,
                                   decode_result, encode_result,
                                   header_types, result_header_payload)

_ELEMENTS = {
    t.INT64: st.integers(-2**63, 2**63 - 1),
    t.FLOAT64: st.floats(allow_nan=True, allow_infinity=True, width=64),
    t.BOOL: st.booleans(),
    t.DATE: st.integers(-2**31, 2**31 - 1),
    # zero-length, non-ASCII and astral-plane strings included
    t.STRING: st.text(max_size=8),
}


@st.composite
def tables(draw):
    dtypes = draw(st.lists(st.sampled_from(t.ALL_TYPES), min_size=1,
                           max_size=5))
    nrows = draw(st.integers(0, 24))  # 0: the empty table
    names = [f"c{i}" for i in range(len(dtypes))]
    columns = {}
    for name, dtype in zip(names, dtypes):
        values = draw(st.lists(_ELEMENTS[dtype], min_size=nrows,
                               max_size=nrows))
        column = dtype.empty(nrows)
        column[:] = values
        columns[name] = column
    return Table(Schema(names, dtypes), columns)


def python_rows(table: Table) -> list[tuple]:
    return [tuple(v.item() if hasattr(v, "item") else v for v in row)
            for row in table.to_rows()]


def same(rows) -> str:
    """Rows in a form that compares NaN equal to NaN and tells 0.0
    from -0.0 and 1 from True (what the benchmark checksums)."""
    return repr([tuple(row) for row in rows])


@pytest.fixture(scope="module")
def served():
    db = Database(RecyclerConfig(mode="spec"))
    with ReproServer(db) as tcp, HttpServer(db) as http_server:
        with ServerClient(*tcp.address) as tcp_client, \
                HttpClient(*http_server.address) as http_client:
            yield db, (tcp, http_server), tcp_client, http_client
    db.close()


def ndjson_rows(address, sql: str) -> tuple[list, int]:
    """The rows as a client that sends no ``Accept`` header reads them,
    and the number of chunk lines."""
    conn = http.client.HTTPConnection(*address, timeout=10.0)
    try:
        conn.request("POST", "/v1/query",
                     body=json.dumps({"sql": sql}).encode())
        response = conn.getresponse()
        assert response.getheader("Content-Type") == "application/x-ndjson"
        lines = [json.loads(line) for line in response.read().splitlines()]
    finally:
        conn.close()
    assert lines[-1]["kind"] == "result_end"
    chunks = [line for line in lines if line["kind"] == "result_chunk"]
    return [row for line in chunks for row in line["rows"]], len(chunks)


@settings(max_examples=60, deadline=None)
@given(table=tables(), chunk_rows=st.sampled_from([1, 7, None]))
def test_every_encoding_delivers_the_rows_of_the_table(served, table,
                                                       chunk_rows):
    """``chunk_rows`` of None fits every table in one chunk (a one-frame
    reply on TCP and HTTP frames); 1 and 7 put most tables past the
    line, into a header / chunks / trailer stream."""
    db, servers, tcp_client, http_client = served
    for server in servers:
        server.chunk_rows = chunk_rows or max(table.num_rows, 1)
    db.register_table("x", table)
    expected = same(python_rows(table))
    expected_chunks = -(-table.num_rows // servers[0].chunk_rows)

    in_process = db.sql("SELECT * FROM x").table
    over_tcp = tcp_client.query("SELECT * FROM x")
    over_http = http_client.query("SELECT * FROM x")
    as_json, json_chunks = ndjson_rows(servers[1].address,
                                       "SELECT * FROM x")
    assert same(python_rows(in_process)) == expected
    assert same(over_tcp.rows) == expected
    assert same(over_http.rows) == expected
    assert same(as_json) == expected
    assert over_tcp.chunks == over_http.chunks == json_chunks \
        == expected_chunks
    assert over_tcp.types == over_http.types \
        == [d.name for d in table.schema.types]


# ----------------------------------------------------------------------
# malformed binary payloads
# ----------------------------------------------------------------------
# Each case is a result frame or a chunk that a decoder sizing anything
# from its header would answer with MemoryError (2**60 rows), garbage
# rows or an IndexError; every one must be a ProtocolError.
TYPES = [t.INT64, t.STRING]


def _table() -> Table:
    return Table(Schema(["n", "s"], TYPES),
                 {"n": np.array([1, 2, 3], dtype=np.int64),
                  "s": np.array(["a", "", "né"], dtype=object)})


def _chunk() -> bytes:
    return columnar_chunk(_table(), 0, 3)


def _result(**header) -> bytes:
    """The one-frame reply of ``_table()``, its header fields replaced
    by ``header``."""
    payload = result_header_payload(1, _table(), {"query_id": 1})
    return encode_result(dict(payload, **header), _chunk())


# where things sit in _chunk(): prefix 16 B (magic, nrows); column "n":
# 3 x int64; column "s": 4 offsets, the blob "a" "" "né" padded to 8
_NROWS = 8
_S_OFFSETS = 16 + 24
# in _result(): prefix 16 B (magic, header length), then the header
_HEADER_LENGTH = 8


def _patched(payload: bytes, offset: int, value: int) -> bytes:
    payload = bytearray(payload)
    struct.pack_into("<q", payload, offset, value)
    return bytes(payload)


def _result_values_at() -> int:
    """Where the column values of ``_result()`` start."""
    length = struct.unpack_from("<q", _result(), _HEADER_LENGTH)[0]
    return 16 + length + (-length % 8)


def test_well_formed_payloads_decode():
    rows = [(1, "a"), (2, ""), (3, "né")]
    assert decode_columnar_chunk(_chunk(), TYPES) == rows
    header, decoded = decode_result(_result())
    assert decoded == rows
    assert (header["kind"], header["chunks"], header["rows"],
            header["rowcount"]) == ("result", 1, 3, 3)
    assert header["columns"] == ["n", "s"]
    assert header["types"] == ["INT64", "STRING"]


def test_every_truncation_is_refused():
    for payload, decode in ((_chunk(),
                             lambda p: decode_columnar_chunk(p, TYPES)),
                            (_result(), decode_result)):
        for length in range(len(payload)):
            with pytest.raises(ProtocolError):
                decode(payload[:length])
        with pytest.raises(ProtocolError, match="end at"):
            decode(payload + bytes(8))


_VALUES = _result_values_at()


@pytest.mark.parametrize("chunk", [
    pytest.param(_patched(_chunk(), 0, 0x344B4844), id="bad magic"),
    pytest.param(_patched(_chunk(), _NROWS, 2**60),
                 id="row count past the payload"),
    pytest.param(_patched(_chunk(), _NROWS, -3), id="negative row count"),
    pytest.param(_patched(_chunk(), _NROWS, 2),
                 id="row count that disagrees with the bytes"),
    pytest.param(_patched(_chunk(), _S_OFFSETS + 24, 2**40),
                 id="string offsets past the payload"),
    pytest.param(_patched(_chunk(), _S_OFFSETS + 8, 5),
                 id="string offsets not monotone"),
    pytest.param(_patched(_chunk(), _S_OFFSETS, 1),
                 id="string offsets not from 0"),
    pytest.param(_chunk().replace("né".encode(), b"n\xff\xfe"),
                 id="string not UTF-8"),
])
def test_malformed_chunks_are_refused_before_allocating(chunk):
    with pytest.raises(ProtocolError, match="malformed columnar chunk"):
        decode_columnar_chunk(chunk, TYPES)


@pytest.mark.parametrize("frame", [
    pytest.param(_patched(_result(), 0, 0x34534553), id="bad magic"),
    pytest.param(_patched(_result(), _HEADER_LENGTH, 2**50),
                 id="header length past the payload"),
    pytest.param(_patched(_result(), _HEADER_LENGTH, -1),
                 id="negative header length"),
    pytest.param(_patched(_result(), _HEADER_LENGTH, 5),
                 id="header length cutting the JSON"),
    pytest.param(_result(rowcount=2**60), id="rowcount past the payload"),
    pytest.param(_result(rowcount=-3), id="negative rowcount"),
    pytest.param(_result(rowcount=2), id="rowcount below the bytes"),
    pytest.param(_result(rowcount=4), id="rowcount above the bytes"),
    pytest.param(_result(rowcount="3"), id="rowcount not a number"),
    pytest.param(_result(rowcount=True), id="rowcount a boolean"),
    pytest.param(_result(types=["INT64"], columns=["n"]),
                 id="fewer types than sections"),
    pytest.param(_result(types=["INT64", "STRING", "INT64"],
                         columns=["n", "s", "m"]),
                 id="more types than sections"),
    pytest.param(_result(types=["INT64", "STRING"], columns=["n"]),
                 id="types and columns disagree"),
    pytest.param(_result(types=["INT64", "INT65"]), id="unknown dtype"),
    pytest.param(_result(types=["INT64", "string"]),
                 id="dtype in the wrong case"),
    pytest.param(_result(types=["INT64", 7]), id="dtype not a name"),
    pytest.param(_result(types="INT64"), id="types not a list"),
    pytest.param(_patched(_result(), _VALUES + 24 + 24, 2**40),
                 id="string offsets past the payload"),
    pytest.param(_patched(_result(), _VALUES + 24 + 8, 5),
                 id="string offsets not monotone"),
    pytest.param(_patched(_result(), _VALUES + 24, 1),
                 id="string offsets not from 0"),
    pytest.param(_result().replace("né".encode(), b"n\xff\xfe"),
                 id="string not UTF-8"),
])
def test_malformed_result_frames_are_refused_before_allocating(frame):
    with pytest.raises(ProtocolError, match="malformed|undecodable"):
        decode_result(frame)


def test_unknown_stream_types_are_refused():
    for types in (["INT65"], ["int64"], [None], "INT64"):
        with pytest.raises(ProtocolError, match="malformed result header"):
            header_types({"columns": ["n"], "types": types})


def test_rows_without_columns_are_refused():
    with pytest.raises(ProtocolError):
        decode_columnar_chunk(struct.pack("<2q", 0x344B4843, 5), [])
    assert decode_columnar_chunk(struct.pack("<2q", 0x344B4843, 0),
                                 []) == []
