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

The same encoding is the serving layer's ``result_chunk`` frame
(:mod:`repro.server.protocol`, specified in ``docs/PROTOCOL.md``), so
:func:`decode_table` treats its input as untrusted.

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


def _padded(raw: bytes) -> bytes:
    return raw + bytes(-len(raw) % 8) if len(raw) % 8 else raw


def _text(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _INT.pack(len(raw)) + _padded(raw)


def _sections(table: Table) -> list[bytes]:
    """The encoding of ``table`` as consecutive byte sections (see the
    layout in the module docstring)."""
    schema = table.schema
    sections = [struct.pack("<3q", _MAGIC, len(schema), table.num_rows)]
    for name, dtype in zip(schema.names, schema.types):
        sections.append(_text(name) + _text(dtype.name))
        column = table.column(name)
        if dtype is t.STRING:
            encoded = [v.encode("utf-8") for v in column]
            offsets = np.zeros(len(encoded) + 1, dtype="<i8")
            if encoded:
                np.cumsum([len(e) for e in encoded], out=offsets[1:])
            sections.append(offsets.tobytes())
            sections.append(_padded(b"".join(encoded)))
        else:
            sections.append(_padded(np.ascontiguousarray(
                column, dtype=_WIRE_DTYPES[dtype]).tobytes()))
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


def encode_bytes(table: Table) -> bytes:
    """``table`` encoded into a fresh ``bytes`` (the wire's chunk
    frames): one pass, no sizing walk beforehand."""
    return b"".join(_sections(table))


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------
def decode_table(buf, offset: int = 0,
                 copy: bool = True) -> tuple[Table, int]:
    """Decode one table from ``buf`` at ``offset``; returns ``(table,
    end_offset)``; see :func:`decode_columns`."""
    names, dtypes, columns, end = decode_columns(buf, offset, copy)
    return Table(Schema(names, dtypes), dict(zip(names, columns))), end


def decode_columns(buf, offset: int = 0, copy: bool = True,
                   ) -> tuple[list[str], list[t.DataType],
                              list[np.ndarray], int]:
    """Decode one table from ``buf`` at ``offset`` as ``(names, dtypes,
    column arrays, end_offset)``.

    With ``copy=False`` fixed-width columns are zero-copy
    ``np.frombuffer`` views into ``buf`` — the caller must keep the
    underlying mapping alive as long as the table (worker-side
    registered tables).  With ``copy=True`` every column owns its data
    (parent-side ring decode: the slot recycles immediately).  STRING
    columns are always materialized as fresh object arrays.

    The buffer may come from outside the process (a wire frame): every
    count and offset in it is checked against the bytes actually
    present *before* anything is sized from it, and a buffer that does
    not hold what its header promises raises :class:`SchemaError`.
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
    columns: list[np.ndarray] = []
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
            offsets = _view(buf, pos, np.dtype("<i8"), nrows + 1)
            pos += 8 * (nrows + 1)
            blob_len = int(offsets[-1])
            if offsets[0] != 0 or (np.diff(offsets) < 0).any() \
                    or blob_len > len(buf) - pos:
                raise SchemaError(
                    f"string offsets of column {name!r} point outside"
                    f" the buffer")
            blob = bytes(buf[pos:pos + blob_len])
            pos += _align8(blob_len)
            bounds = offsets.tolist()
            values = np.empty(nrows, dtype=object)
            try:
                values[:] = [blob[a:b].decode("utf-8")
                             for a, b in zip(bounds, bounds[1:])]
            except UnicodeDecodeError as exc:
                raise SchemaError(
                    f"column {name!r} is not UTF-8: {exc}") from None
            columns.append(values)
        else:
            arr = _view(buf, pos, _WIRE_DTYPES[dtype], nrows)
            columns.append(arr.copy() if copy else arr)
            pos += _align8(arr.nbytes)
    return names, dtypes, columns, pos


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
