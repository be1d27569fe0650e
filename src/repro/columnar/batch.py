"""Record batches: the unit of data flow in the pipelined engine.

A :class:`Batch` is an ordered mapping of column name to numpy array, all
arrays having the same length.  Operators pass batches of roughly
``VECTOR_SIZE`` tuples down the pipeline — the "vector-at-a-time" model of
Vectorwise that the paper's recycler is integrated with.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from . import types as t

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .table import Schema

#: Tuples per vector — the one size every query runs at.  Vectorwise's
#: ~1K vectors are sized to stay cache-resident; here each ``next()`` is
#: tens of interpreter calls under numpy, and the size is the measured
#: one that amortises them (``docs/ARCHITECTURE.md``, "Engine fixed
#: costs").
VECTOR_SIZE = 4096


class Batch:
    """An immutable-by-convention chunk of rows in columnar layout."""

    __slots__ = ("_columns", "_length", "_nbytes")

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        self._columns: dict[str, np.ndarray] = dict(columns)
        lengths = {len(a) for a in self._columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged batch: column lengths {sorted(lengths)}")
        self._length = lengths.pop() if lengths else 0
        self._nbytes: int | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _aligned(cls, columns: dict[str, np.ndarray]) -> "Batch":
        """Internal: wrap ``columns`` — a dict the caller hands over,
        whose arrays have one length by construction (the same mask,
        index or slice applied to every column of a batch or table) —
        without the copy and the ragged check of ``Batch(...)``."""
        batch = cls.__new__(cls)
        batch._columns = columns
        batch._length = len(next(iter(columns.values()))) if columns else 0
        batch._nbytes = None
        return batch

    @classmethod
    def empty(cls, names: Sequence[str],
              dtypes: Sequence[t.DataType]) -> "Batch":
        """A zero-row batch with the given column names and types."""
        return cls({n: d.empty(0) for n, d in zip(names, dtypes)})

    @classmethod
    def from_rows(cls, names: Sequence[str], dtypes: Sequence[t.DataType],
                  rows: Iterable[Sequence]) -> "Batch":
        """Build a batch from an iterable of row tuples (tests, tiny data)."""
        rows = list(rows)
        columns = {}
        for i, (name, dtype) in enumerate(zip(names, dtypes)):
            raw = [r[i] for r in rows]
            if dtype is t.STRING:
                arr = np.array(raw, dtype=object)
            else:
                arr = np.array(raw, dtype=dtype.numpy_dtype)
            columns[name] = arr
        return cls(columns)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def names(self) -> list[str]:
        return list(self._columns.keys())

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """The underlying name -> array mapping (do not mutate)."""
        return self._columns

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"batch has no column {name!r}; have {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    # ------------------------------------------------------------------
    # transformations (each returns a new Batch; arrays are shared
    # wherever possible)
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "Batch":
        """Keep only ``names``, in the given order."""
        return Batch._aligned({n: self.column(n) for n in names})

    def rename(self, mapping: Mapping[str, str]) -> "Batch":
        """Rename columns; names absent from ``mapping`` are kept."""
        renamed = Batch._aligned({mapping.get(n, n): a
                                  for n, a in self._columns.items()})
        renamed._nbytes = self._nbytes  # same columns, same payload
        return renamed

    def with_column(self, name: str, values: np.ndarray) -> "Batch":
        """Return a copy with ``name`` added or replaced."""
        if len(values) != self._length and self._columns:
            raise SchemaError(
                f"column {name!r} has {len(values)} rows, batch has"
                f" {self._length}")
        new = dict(self._columns)
        new[name] = values
        return Batch(new)

    def filter(self, mask: np.ndarray) -> "Batch":
        """Keep rows where ``mask`` is true."""
        if mask.dtype.kind != "b":
            raise SchemaError("filter mask must be boolean")
        return Batch._aligned({n: a[mask]
                               for n, a in self._columns.items()})

    def take(self, indices: np.ndarray) -> "Batch":
        """Gather rows by position."""
        return Batch._aligned({n: a[indices]
                               for n, a in self._columns.items()})

    def slice(self, start: int, stop: int) -> "Batch":
        """Rows ``start:stop`` (zero-copy views for fixed-width columns)."""
        return Batch._aligned({n: a[start:stop]
                               for n, a in self._columns.items()})

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Payload bytes of this batch: ``arr.nbytes`` of every
        fixed-width column, the character count of every STRING column
        (:func:`types.array_nbytes`, the only per-element walk).

        Memoized: every operator's ``next()`` accounting asks for it,
        and batches are immutable, so the O(columns) walk runs once.
        """
        if self._nbytes is None:
            total = 0
            for arr in self._columns.values():
                if arr.dtype.kind in "OUS":
                    total += t.array_nbytes(arr, t.STRING)
                else:
                    total += arr.nbytes
            self._nbytes = total
        return self._nbytes

    def row(self, i: int) -> tuple:
        """Row ``i`` as a Python tuple (tests and debugging)."""
        return tuple(arr[i] for arr in self._columns.values())

    def to_rows(self) -> list[tuple]:
        """All rows as Python tuples (tests and small results only)."""
        return [self.row(i) for i in range(self._length)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({self._length} rows, cols={self.names})"


def concat_batches(batches: Sequence[Batch],
                   schema: "Schema | None" = None) -> Batch:
    """Concatenate batches with identical column layouts.

    ``schema`` supplies the column names and dtypes of the result when
    every input is empty (or absent), so empty results flow through
    call sites without special cases; without it, concatenating zero
    non-empty batches is an error.
    """
    batches = [b for b in batches if len(b) > 0]
    if not batches:
        if schema is None:
            raise SchemaError("cannot concatenate zero non-empty batches")
        return Batch.empty(schema.names, schema.types)
    names = batches[0].names
    for b in batches[1:]:
        if b.names != names:
            raise SchemaError(
                f"batch layout mismatch: {b.names} vs {names}")
    return Batch({
        n: np.concatenate([b.column(n) for b in batches]) for n in names
    })
