"""In-memory tables: named, typed column collections.

A :class:`Table` is the materialized form of a relation — base tables in the
catalog, recycled (cached) results, and final query results are all tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from . import types as t
from .batch import VECTOR_SIZE, Batch, concat_batches


class Schema:
    """An ordered list of (name, type) pairs."""

    __slots__ = ("_names", "_types", "_index")

    def __init__(self, names: Sequence[str],
                 dtypes: Sequence[t.DataType]) -> None:
        if len(names) != len(dtypes):
            raise SchemaError("names and dtypes must have equal length")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if list(names).count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        self._names = list(names)
        self._types = list(dtypes)
        self._index = {n: i for i, n in enumerate(self._names)}

    @property
    def names(self) -> list[str]:
        return list(self._names)

    @property
    def types(self) -> list[t.DataType]:
        return list(self._types)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._names == other._names and self._types == other._types

    def __hash__(self) -> int:
        return hash((tuple(self._names), tuple(x.name for x in self._types)))

    def type_of(self, name: str) -> t.DataType:
        try:
            return self._types[self._index[name]]
        except KeyError:
            raise SchemaError(
                f"schema has no column {name!r}; have {self._names}"
            ) from None

    def field(self, name: str) -> tuple[str, t.DataType]:
        return name, self.type_of(name)

    def select(self, names: Sequence[str]) -> "Schema":
        return Schema(list(names), [self.type_of(n) for n in names])

    def rename(self, mapping: Mapping[str, str]) -> "Schema":
        return Schema([mapping.get(n, n) for n in self._names], self._types)

    def concat(self, other: "Schema") -> "Schema":
        return Schema(self._names + other._names, self._types + other._types)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{n}:{d.name}" for n, d in
                         zip(self._names, self._types))
        return f"Schema({cols})"


class Table:
    """A fully materialized relation."""

    __slots__ = ("schema", "_columns", "_nrows", "_nbytes")

    def __init__(self, schema: Schema,
                 columns: Mapping[str, np.ndarray]) -> None:
        self.schema = schema
        self._columns = {n: t.coerce_array(np.asarray(columns[n]),
                                           schema.type_of(n))
                         for n in schema.names}
        lengths = {len(a) for a in self._columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged table: column lengths {sorted(lengths)}")
        self._nrows = lengths.pop() if lengths else 0
        self._nbytes: int | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, names: Sequence[str], dtypes: Sequence[t.DataType],
                  rows: Iterable[Sequence]) -> "Table":
        batch = Batch.from_rows(names, dtypes, rows)
        return cls(Schema(names, dtypes), batch.arrays)

    @classmethod
    def from_batches(cls, schema: Schema, batches: Sequence[Batch],
                     nbytes: int | None = None) -> "Table":
        """The rows of ``batches``, in order.  ``nbytes`` is their
        summed :meth:`Batch.nbytes`, when the caller has kept it: it is
        the table's :meth:`nbytes`, which then counts no STRING column's
        characters again."""
        merged = concat_batches(batches, schema=schema)
        table = cls(schema, {n: merged.column(n) for n in schema.names})
        table._nbytes = nbytes
        return table

    @classmethod
    def _validated(cls, schema: Schema, columns: dict[str, np.ndarray],
                   rows: int) -> "Table":
        """A table over ``columns``, which are already another table's
        arrays of ``schema``'s types, keyed in ``schema``'s order and
        ``rows`` long: no coercion and no length check — how a
        transform that keeps columns whole (:meth:`select`,
        :meth:`rename`, :meth:`project`) builds its result."""
        table = object.__new__(cls)
        table.schema = schema
        table._columns = columns
        table._nrows = rows if columns else 0
        table._nbytes = None
        return table

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls(schema, {n: schema.type_of(n).empty(0)
                            for n in schema.names})

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._nrows

    def __len__(self) -> int:
        return self._nrows

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"table has no column {name!r}; have {self.schema.names}"
            ) from None

    def nbytes(self) -> int:
        """Payload bytes — the quantity the recycler cache budgets.

        Memoized (tables are immutable): a stored result is sized when
        the store completes and again at cache admission, and counting a
        STRING column's characters is the expensive part.
        """
        if self._nbytes is None:
            self._nbytes = sum(
                t.array_nbytes(self._columns[name],
                               self.schema.type_of(name))
                for name in self.schema.names)
        return self._nbytes

    def freeze(self) -> None:
        """Make every column array read-only, object arrays included
        (the recycler cache does this to what it publishes: full-plan
        hits hand these very arrays to callers)."""
        for array in self._columns.values():
            array.flags.writeable = False

    # ------------------------------------------------------------------
    # transformation / iteration
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "Table":
        return Table._validated(self.schema.select(names),
                                {n: self._columns[n] for n in names},
                                self._nrows)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        renamed = Table._validated(self.schema.rename(mapping),
                                   {mapping.get(n, n): a
                                    for n, a in self._columns.items()},
                                   self._nrows)
        renamed._nbytes = self._nbytes  # same columns, same payload
        return renamed

    def project(self, schema: Schema,
                rename: Mapping[str, str]) -> "Table":
        """This table's columns as ``schema`` names and orders them:
        ``rename`` maps names here to names there (absent names are
        kept), columns ``schema`` does not list are dropped.  The
        arrays are shared, not copied — how a cached result reaches the
        query that reuses it — so ``schema`` gives each column the type
        it has here."""
        source = {rename.get(name, name): name for name in self._columns}
        projected = Table._validated(
            schema, {name: self._columns[source[name]]
                     for name in schema.names}, self._nrows)
        if len(schema) == len(self._columns):
            projected._nbytes = self._nbytes  # same columns, same payload
        return projected

    def filter(self, mask: np.ndarray) -> "Table":
        return Table(self.schema,
                     {n: a[mask] for n, a in self._columns.items()})

    def take(self, indices: np.ndarray) -> "Table":
        return Table(self.schema,
                     {n: a[indices] for n, a in self._columns.items()})

    def head(self, n: int) -> "Table":
        return Table(self.schema,
                     {name: a[:n] for name, a in self._columns.items()})

    def to_batches(self, vector_size: int = VECTOR_SIZE) -> list[Batch]:
        """Split the table into engine-sized vectors."""
        return [self.to_batch(start, start + vector_size)
                for start in range(0, self._nrows, vector_size)]

    def to_batch(self, start: int = 0, stop: int | None = None) -> Batch:
        """Rows ``start:stop`` as one batch of zero-copy column views —
        the whole table by default (what the leaf scans emit a vector
        at a time)."""
        return Batch._aligned({n: a[start:stop]
                               for n, a in self._columns.items()})

    def to_rows(self) -> list[tuple]:
        """All rows as Python tuples (tests and small results only)."""
        arrays = [self._columns[n] for n in self.schema.names]
        return [tuple(a[i] for a in arrays) for i in range(self._nrows)]

    def iter_rows(self):
        """Rows as Python tuples, lazily — element-identical to
        :meth:`to_rows` without ever materializing the full row list
        (the streaming wire protocol and the DB-API cursor fetch from
        this, keeping peak buffered rows bounded by their chunk size)."""
        arrays = [self._columns[n] for n in self.schema.names]
        for i in range(self._nrows):
            yield tuple(a[i] for a in arrays)

    def sorted_rows(self) -> list[tuple]:
        """Rows in a canonical order — for order-insensitive comparisons."""
        return sorted(self.to_rows(), key=lambda r: tuple(map(repr, r)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self._nrows} rows, {self.schema!r})"
