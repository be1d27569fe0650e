"""The worked example of ``docs/PROTOCOL.md`` is what the real server
and encoder put on the wire: this test replays the exchange against a
``ReproServer`` and compares the rendering with the block in the spec,
so the byte-level example cannot drift from the implementation.

After a deliberate wire change, regenerate the block with::

    PYTHONPATH=src python tests/server/test_protocol_doc.py --write
"""

from __future__ import annotations

import socket
import sys
from pathlib import Path

import numpy as np

from repro import Database, RecyclerConfig, Table
from repro.columnar import INT64, STRING, Schema
from repro.server import PROTOCOL_VERSION, ReproServer
from repro.server.protocol import BINARY_PREFIX, HEADER, encode_frame

SPEC = Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"
BEGIN = "<!-- worked-example:begin (tests/server/test_protocol_doc.py) -->"
END = "<!-- worked-example:end -->"
QUERY = "SELECT id, name FROM t"


def _hex(data: bytes) -> str:
    return " ".join(f"{byte:02x}" for byte in data)


def _hexdump(data: bytes, start: int = 0) -> list[str]:
    lines = []
    for offset in range(0, len(data), 16):
        row = data[offset:offset + 16]
        text = "".join(chr(b) if 32 <= b < 127 else "." for b in row)
        lines.append(f"     {start + offset:04x}  {_hex(row):<47}  {text}")
    return lines


def _wrapped(text: str) -> list[str]:
    return ["     " + text[i:i + 64] for i in range(0, len(text), 64)]


def _render(direction: str, frame: bytes) -> list[str]:
    """One frame: the 4 header bytes, then the payload — JSON as text
    (wrapped at 64 characters); a ``result`` frame as a hex dump of its
    prefix, its JSON header as text and its column values as a hex
    dump."""
    payload = frame[HEADER.size:]
    lines = [f"{direction}  {_hex(frame[:HEADER.size])}"]
    if payload[:1] == b"{":
        return lines + _wrapped(payload.decode("utf-8"))
    prefix = BINARY_PREFIX.size
    length = BINARY_PREFIX.unpack_from(payload)[1]
    values = prefix + length + (-length % 8)
    return (lines + _hexdump(payload[:prefix])
            + _wrapped(payload[prefix:prefix + length].decode("utf-8"))
            + _hexdump(payload[values:], values))


def _read_frame(reader) -> bytes:
    header = reader.read(HEADER.size)
    return header + reader.read(HEADER.unpack(header)[0])


def worked_example() -> str:
    db = Database(RecyclerConfig(mode="spec"))
    try:
        names = np.empty(2, dtype=object)
        names[:] = ["ab", "né"]
        db.register_table("t", Table(
            Schema(["id", "name"], [INT64, STRING]),
            {"id": np.array([1, 2], dtype=np.int64), "name": names}))
        lines: list[str] = []
        with ReproServer(db) as server, \
                socket.create_connection(server.address) as sock:
            reader = sock.makefile("rb")
            for request, replies in (
                    ({"op": "hello", "version": PROTOCOL_VERSION}, 1),
                    ({"op": "query", "sql": QUERY}, 1)):
                frame = encode_frame(request)
                sock.sendall(frame)
                lines += _render("C→S", frame)
                for _ in range(replies):
                    lines += _render("S→C", _read_frame(reader))
                lines.append("")
        return "\n".join(["```"] + lines[:-1] + ["```"])
    finally:
        db.close()


def _split_spec() -> tuple[str, str, str]:
    text = SPEC.read_text(encoding="utf-8")
    before, _, rest = text.partition(BEGIN + "\n")
    block, _, after = rest.partition(END)
    assert rest and after, f"{SPEC} lost its worked-example markers"
    return before, block.rstrip("\n"), after


def test_worked_example_is_what_the_server_sends():
    _, block, _ = _split_spec()
    assert block == worked_example(), (
        "docs/PROTOCOL.md's worked example no longer matches the wire;"
        " regenerate it: PYTHONPATH=src python"
        " tests/server/test_protocol_doc.py --write")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        before, _, after = _split_spec()
        SPEC.write_text(before + BEGIN + "\n" + worked_example() + "\n"
                        + END + after, encoding="utf-8")
    else:
        print(worked_example())
