"""Shared-memory column transport: a pickle-free table codec.

Process-sharded execution (``repro.engine.shard``) moves whole tables
between processes without pickling a single batch:

* **Registered tables** are encoded once into one
  :class:`multiprocessing.shared_memory.SharedMemory` segment per table
  at pool creation.  Workers attach and map every fixed-width column as
  a zero-copy ``np.frombuffer`` view over the segment; STRING columns —
  stored as a length-prefixed byte arena — are decoded exactly once per
  worker (strings are Python objects and cannot be shared across
  processes anyway).
* **Result tables** travel back through a shared-memory ring
  (:mod:`repro.engine.shard.transport`) in the same encoding; the
  parent copies fixed-width payloads out of the ring (one memcpy, no
  pickle) so ring slots recycle immediately.

The value sections of the encoding (:func:`encode_sections` /
:func:`decode_sections`: a table's columns without their names and
dtypes) are what the serving layer's result frames carry after a
header that holds the schema once (:mod:`repro.server.protocol`,
specified in ``docs/PROTOCOL.md``), so every decoder here treats its
input as untrusted.

Layout (every integer and fixed-width value little-endian; all
sections 8-byte aligned so int64/float64 views over the buffer are
aligned)::

    int64 magic ("RBC1")  | int64 ncols | int64 nrows
    per column:
      int64 len(name)  | name utf-8  | pad to 8
      int64 len(dtype) | dtype utf-8 | pad to 8
      fixed width: nrows * itemsize raw bytes           | pad to 8
      STRING:      int64 offsets[nrows + 1] | utf-8 blob | pad to 8

``resource_tracker`` discipline: the *creator* of a segment owns its
name and is the only process that unlinks it.  Shard workers are
*spawned*, so on POSIX they share the parent's resource-tracker
process — registrations land in one per-name set, an attacher's
re-register is idempotent, and the creator's ``unlink`` balances the
books exactly once.  The one thing an attacher must *not* do is
unregister (that clobbers the creator's registration in the shared
tracker and the later unlink raises ``KeyError`` noise inside the
tracker); on Python ≥ 3.13 :func:`attach_segment` uses ``track=False``
to skip the redundant re-register outright.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from multiprocessing import shared_memory

import numpy as np

from ..errors import SchemaError, TypeError_
from . import types as t
from .table import Schema, Table

_MAGIC = 0x31434252  # "RBC1" little-endian
_INT = struct.Struct("<q")


def _align8(n: int) -> int:
    return (n + 7) & ~7


# ---------------------------------------------------------------------------
# size calculation
# ---------------------------------------------------------------------------
def encoded_nbytes(table: Table) -> int:
    """Exact encoded size of ``table`` (for sizing a segment or
    reserving ring space)."""
    total = 24  # magic, ncols, nrows
    for name in table.schema.names:
        dtype = table.schema.type_of(name)
        total += 8 + _align8(len(name.encode("utf-8")))
        total += 8 + _align8(len(dtype.name.encode("utf-8")))
        if dtype is t.STRING:
            blob = sum(len(v.encode("utf-8")) for v in table.column(name))
            total += _align8(8 * (table.num_rows + 1)) + _align8(blob)
        else:
            total += _align8(table.num_rows
                             * np.dtype(dtype.numpy_dtype).itemsize)
    return total


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------
#: the numpy dtype of each fixed-width column type in the encoding: the
#: byte order is little-endian whatever the host's.
_WIRE_DTYPES = {dtype: np.dtype(dtype.numpy_dtype).newbyteorder("<")
                for dtype in t.ALL_TYPES if dtype is not t.STRING}

#: the same types' ``struct`` codes: a short column decodes to Python
#: values faster through ``struct`` than through numpy.
_CODES = {t.INT64: "q", t.FLOAT64: "d", t.BOOL: "?", t.DATE: "i"}
assert all(struct.calcsize("<" + code) == _WIRE_DTYPES[dtype].itemsize
           for dtype, code in _CODES.items())


def _padded(raw: bytes) -> bytes:
    return raw + bytes(-len(raw) % 8) if len(raw) % 8 else raw


def _text(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _INT.pack(len(raw)) + _padded(raw)


def encode_sections(columns, dtypes) -> list[bytes]:
    """The value sections of ``columns`` (arrays of one row count,
    typed ``dtypes``), in the layout of the module docstring but
    without the names and dtypes: what the wire's result frames and
    chunks carry after their own header, which holds the schema."""
    sections = []
    for column, dtype in zip(columns, dtypes):
        if dtype is t.STRING:
            encoded = [v.encode("utf-8") for v in column]
            sections.append(struct.pack(f"<{len(encoded) + 1}q", 0,
                                        *accumulate(map(len, encoded))))
            sections.append(_padded(b"".join(encoded)))
        else:
            sections.append(_padded(np.ascontiguousarray(
                column, dtype=_WIRE_DTYPES[dtype]).tobytes()))
    return sections


def _sections(table: Table) -> list[bytes]:
    """The encoding of ``table`` as consecutive byte sections (see the
    layout in the module docstring)."""
    schema = table.schema
    sections = [struct.pack("<3q", _MAGIC, len(schema), table.num_rows)]
    for name, dtype in zip(schema.names, schema.types):
        sections.append(_text(name) + _text(dtype.name))
        sections += encode_sections([table.column(name)], [dtype])
    return sections


def encode_table(table: Table, buf, offset: int = 0) -> int:
    """Encode ``table`` into ``buf`` (a writable buffer) starting at
    ``offset``; returns the end offset.  The caller sizes ``buf`` with
    :func:`encoded_nbytes`."""
    buf = memoryview(buf)
    pos = offset
    for section in _sections(table):
        buf[pos:pos + len(section)] = section
        pos += len(section)
    return pos


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------
def decode_table(buf, offset: int = 0,
                 copy: bool = True) -> tuple[Table, int]:
    """Decode one table from ``buf`` at ``offset``; returns ``(table,
    end_offset)``.

    With ``copy=False`` fixed-width columns are zero-copy
    ``np.frombuffer`` views into ``buf`` — the caller must keep the
    underlying mapping alive as long as the table (worker-side
    registered tables).  With ``copy=True`` every column owns its data
    (parent-side ring decode: the slot recycles immediately).  STRING
    columns are always materialized as fresh object arrays.

    The buffer may come from outside the process: every count and
    offset in it is checked against the bytes actually present
    *before* anything is sized from it, and a buffer that does not
    hold what its header promises raises :class:`SchemaError`.
    """
    buf = memoryview(buf)
    pos = offset
    if len(buf) - pos < 24:
        raise SchemaError("truncated table header")
    magic, ncols, nrows = struct.unpack_from("<3q", buf, pos)
    if magic != _MAGIC:
        raise SchemaError(f"bad shared-memory table header: {magic:#x}")
    pos += 24
    # a column is at least its two length words
    if not 0 <= ncols <= (len(buf) - pos) // 16:
        raise SchemaError(f"column count {ncols} does not fit the buffer")
    if nrows < 0 or (nrows and not ncols):
        raise SchemaError(f"bad row count {nrows}")
    names: list[str] = []
    dtypes: list[t.DataType] = []
    columns: dict[str, np.ndarray] = {}
    for _ in range(ncols):
        name, pos = _get_str(buf, pos)
        dtype_name, pos = _get_str(buf, pos)
        try:
            dtype = t.type_from_name(dtype_name)
        except TypeError_ as exc:
            raise SchemaError(str(exc)) from None
        names.append(name)
        dtypes.append(dtype)
        if dtype is t.STRING:
            strings, pos = _strings(buf, pos, nrows, f"column {name!r}")
            values = np.empty(nrows, dtype=object)
            values[:] = strings
        else:
            values = _view(buf, pos, _WIRE_DTYPES[dtype], nrows)
            pos += _align8(values.nbytes)
            if copy:
                values = values.copy()
        columns[name] = values
    return Table(Schema(names, dtypes), columns), pos


def decode_sections(buf, pos: int, dtypes, nrows: int,
                    ) -> tuple[list[tuple], int]:
    """The inverse of :func:`encode_sections`: ``nrows`` values per
    column of ``dtypes`` from ``buf`` at ``pos``, each column a
    sequence of plain Python values, and the end offset.  ``buf`` is
    untrusted, checked as :func:`decode_table` checks; whether the
    sections end where the buffer does is the caller's to check."""
    if nrows < 0 or (nrows and not dtypes):
        raise SchemaError(f"bad row count {nrows}")
    columns = []
    for index, dtype in enumerate(dtypes):
        if dtype is t.STRING:
            values, pos = _strings(buf, pos, nrows, f"column {index}")
        else:
            code = _CODES[dtype]
            size = nrows * struct.calcsize(code)
            if size > len(buf) - pos:
                raise SchemaError(f"{nrows} {dtype.name} values do not"
                                  f" fit the buffer")
            values = struct.unpack_from(f"<{nrows}{code}", buf, pos)
            pos += _align8(size)
        columns.append(values)
    return columns, pos


def _strings(buf, pos: int, nrows: int, what: str) -> tuple[list, int]:
    """A STRING column's section at ``pos``: its ``nrows`` values and
    the end offset."""
    size = 8 * (nrows + 1)
    if size > len(buf) - pos:
        raise SchemaError(f"{nrows + 1} string offsets do not fit the"
                          f" buffer")
    bounds = struct.unpack_from(f"<{nrows + 1}q", buf, pos)
    pos += size
    # sorted() of sorted input is one C pass: the monotone check
    if bounds[0] != 0 or bounds[-1] > len(buf) - pos \
            or list(bounds) != sorted(bounds):
        raise SchemaError(f"string offsets of {what} point outside the"
                          f" buffer")
    blob = bytes(buf[pos:pos + bounds[-1]])
    try:
        strings = [blob[a:b].decode("utf-8")
                   for a, b in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{what} is not UTF-8: {exc}") from None
    return strings, pos + _align8(bounds[-1])


def _view(buf: memoryview, pos: int, dtype: np.dtype,
          count: int) -> np.ndarray:
    """``count`` values of ``dtype`` at ``pos``, as a view of ``buf``."""
    if not 0 <= count * dtype.itemsize <= len(buf) - pos:
        raise SchemaError(
            f"{count} {dtype.name} values do not fit the buffer")
    return np.frombuffer(buf, dtype=dtype, count=count, offset=pos)


def _get_str(buf: memoryview, pos: int) -> tuple[str, int]:
    if len(buf) - pos < 8:
        raise SchemaError("truncated column header")
    length = _INT.unpack_from(buf, pos)[0]
    pos += 8
    if not 0 <= length <= len(buf) - pos:
        raise SchemaError(f"name of {length} bytes does not fit the buffer")
    try:
        text = bytes(buf[pos:pos + length]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"name is not UTF-8: {exc}") from None
    return text, pos + _align8(length)


# ---------------------------------------------------------------------------
# segment lifecycle
# ---------------------------------------------------------------------------
def create_segment(nbytes: int,
                   name: str | None = None) -> shared_memory.SharedMemory:
    """Create a segment the calling process owns (and must unlink)."""
    return shared_memory.SharedMemory(create=True, name=name,
                                      size=max(nbytes, 8))


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment *without* adopting unlink duty.

    Python < 3.13 has no ``track=False``; attaching then re-registers
    the name with the (spawn-shared) resource tracker, which is a
    harmless set-idempotent duplicate — the creator's eventual
    ``unlink`` unregisters it exactly once.  Do **not** unregister
    here: that would clobber the creator's registration in the shared
    tracker (see module docstring).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


def close_segment(shm: shared_memory.SharedMemory,
                  unlink: bool = False) -> None:
    """Best-effort close (+ optional unlink) that tolerates live views:
    ``SharedMemory.close`` raises ``BufferError`` while zero-copy numpy
    views are still exported; unlinking is what actually releases the
    name, and the mapping itself goes with the process."""
    try:
        shm.close()
    except BufferError:  # pragma: no cover - view still exported
        pass
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def share_table(table: Table) -> shared_memory.SharedMemory:
    """Encode ``table`` into a fresh segment owned by the caller."""
    shm = create_segment(encoded_nbytes(table))
    encode_table(table, shm.buf)
    return shm


def attach_table(name: str) -> tuple[Table, shared_memory.SharedMemory]:
    """Map a shared table: fixed-width columns are zero-copy views into
    the segment, strings are decoded once.  The returned segment must
    outlive the table."""
    shm = attach_segment(name)
    table, _ = decode_table(shm.buf, copy=False)
    return table, shm
