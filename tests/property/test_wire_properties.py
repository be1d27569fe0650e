"""Wire-codec properties: whichever encoding carries a result —
columnar frames over TCP, columnar frames over HTTP, NDJSON over HTTP —
the client receives the same rows, and they are the rows of
``Table.to_rows()``; a columnar frame that is not exactly one
well-formed table is refused typed before anything is sized from it.
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
from repro.server.protocol import (decode_columnar_chunk,
                                   iter_columnar_chunks)

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
    db, servers, tcp_client, http_client = served
    for server in servers:
        server.chunk_rows = chunk_rows or max(table.num_rows, 1)
    db.register_table("x", table)
    expected = same(python_rows(table))
    expected_chunks = -(-table.num_rows // servers[0].chunk_rows)

    over_tcp = tcp_client.query("SELECT * FROM x")
    over_http = http_client.query("SELECT * FROM x")
    as_json, json_chunks = ndjson_rows(servers[1].address,
                                       "SELECT * FROM x")
    assert same(over_tcp.rows) == expected
    assert same(over_http.rows) == expected
    assert same(as_json) == expected
    assert over_tcp.chunks == over_http.chunks == json_chunks \
        == expected_chunks
    assert over_tcp.types == [d.name for d in table.schema.types]


# ----------------------------------------------------------------------
# malformed columnar frames
# ----------------------------------------------------------------------
def _payload() -> bytes:
    table = Table(Schema(["n", "s"], [t.INT64, t.STRING]),
                  {"n": np.array([1, 2, 3], dtype=np.int64),
                   "s": np.array(["a", "", "né"], dtype=object)})
    (payload, count), = iter_columnar_chunks(table)
    assert count == 3
    return payload


# where things sit in _payload(): header 24 B; column "n": name 16 B,
# dtype 16 B, 3 x int64; column "s": name 16 B, dtype "STRING" 16 B,
# 4 offsets, blob
_NROWS = 16
_N_DTYPE = 24 + 16
_S_OFFSETS = 24 + 16 + 16 + 24 + 16 + 16


def _patched(offset: int, value: int) -> bytes:
    payload = bytearray(_payload())
    struct.pack_into("<q", payload, offset, value)
    return bytes(payload)


def test_a_well_formed_frame_decodes():
    assert decode_columnar_chunk(_payload()) \
        == [(1, "a"), (2, ""), (3, "né")]


def test_every_truncation_is_refused():
    payload = _payload()
    for length in range(len(payload)):
        with pytest.raises(ProtocolError):
            decode_columnar_chunk(payload[:length])
    with pytest.raises(ProtocolError, match="ends at"):
        decode_columnar_chunk(payload + bytes(8))


@pytest.mark.parametrize("frame", [
    pytest.param(_patched(0, 0x31434253), id="bad magic"),
    pytest.param(_patched(8, 2**40), id="column count past the payload"),
    pytest.param(_patched(8, -1), id="negative column count"),
    pytest.param(_patched(_NROWS, 2**60), id="row count past the payload"),
    pytest.param(_patched(_NROWS, -3), id="negative row count"),
    pytest.param(_patched(24, 2**50), id="name length past the payload"),
    pytest.param(_patched(_S_OFFSETS + 24, 2**40),
                 id="string offsets past the payload"),
    pytest.param(_patched(_S_OFFSETS + 8, 5),
                 id="string offsets not monotone"),
    pytest.param(_patched(_S_OFFSETS, 1), id="string offsets not from 0"),
    pytest.param(_payload().replace(b"INT64", b"INT65"),
                 id="unknown dtype"),
    pytest.param(_payload().replace("né".encode(), b"n\xff\xfe"),
                 id="string not UTF-8"),
])
def test_malformed_frames_are_refused_before_allocating(frame):
    # a decoder that sized anything from these headers would raise
    # MemoryError (2**60 rows), not ProtocolError
    with pytest.raises(ProtocolError, match="malformed columnar chunk"):
        decode_columnar_chunk(frame)


def test_rows_without_columns_are_refused():
    with pytest.raises(ProtocolError):
        decode_columnar_chunk(struct.pack("<3q", 0x31434252, 0, 5))
    assert decode_columnar_chunk(struct.pack("<3q", 0x31434252, 0, 0)) == []
