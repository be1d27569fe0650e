"""PEP 249 (DB-API 2.0) interface over :class:`~repro.session.Session`.

The standard Python database adapter shape — ``connect()`` /
:class:`Connection` / :class:`Cursor` — as a thin skin over one
:class:`~repro.session.Session` per connection, which mints producer
tokens, bounds and cancels the queries; no recycler internals leak
through.  Connections opened against one shared
:class:`~repro.db.Database` share its recycler: a result one
connection's query materializes is reused by every other connection
(and by sessions, the server, and the facade).

Usage::

    import repro.dbapi as dbapi

    conn = dbapi.connect()                    # private in-memory database
    conn.database.register_table("t", table)
    cur = conn.cursor()
    cur.execute("SELECT g, sum(v) AS s FROM t WHERE v > ? GROUP BY g",
                (10,))
    print(cur.description)                    # name/type 7-tuples
    rows = cur.fetchall()

    shared = dbapi.connect(database=db)       # second frontend onto db

Parameters use ``qmark`` style (``?`` placeholders) substituted
client-side as SQL literals — supported parameter types are ``int``,
``float``, ``bool``, ``str`` (quotes escaped by doubling), and
``datetime.date`` (rendered as a ``DATE '...'`` literal).  The engine
has no NULL literal, so ``None`` parameters raise
:class:`ProgrammingError`.

Threading: ``threadsafety == 2`` — the module and connections may be
shared across threads (a :class:`~repro.session.Session` lets several
threads run queries at once); a single :class:`Cursor` is
single-threaded.

Exceptions follow the PEP 249 hierarchy (:class:`Error`,
:class:`InterfaceError`, :class:`DatabaseError`, ...), each carrying the
originating :class:`~repro.errors.ReproError` as ``__cause__``.
"""

from __future__ import annotations

import datetime
import itertools
import math
from typing import Iterable, Sequence

from .columnar.types import DataType
from .db import Database
from .errors import (CatalogError, ExpressionError, PlanError, QueryAborted,
                     RecyclerError, ReproError, SchemaError, SqlError,
                     TypeError_)
from .recycler.recycler import CLIENT_COUNTERS, QueryTotals

apilevel = "2.0"
#: threads may share the module and connections (a session runs
#: queries from several threads at once); cursors are single-threaded.
threadsafety = 2
paramstyle = "qmark"


# ----------------------------------------------------------------------
# PEP 249 exception hierarchy
# ----------------------------------------------------------------------
class Warning(Exception):  # noqa: A001 - name fixed by PEP 249
    """Important warnings (PEP 249)."""


class Error(Exception):
    """Base class of all DB-API errors raised by this module."""


class InterfaceError(Error):
    """Misuse of the interface itself (closed cursor/connection, ...)."""


class DatabaseError(Error):
    """Base class for errors reported by the database."""


class DataError(DatabaseError):
    """Problems with the processed data (bad value/type)."""


class OperationalError(DatabaseError):
    """Errors of the database's operation (timeouts, cancellation)."""


class IntegrityError(DatabaseError):
    """Relational integrity violations (unused; required by PEP 249)."""


class InternalError(DatabaseError):
    """The database hit an internal inconsistency."""


class ProgrammingError(DatabaseError):
    """Errors in the submitted SQL or its parameters."""


class NotSupportedError(DatabaseError):
    """An API feature this engine does not provide (``rollback``)."""


def _map_error(exc: ReproError) -> Error:
    """The one ReproError→PEP 249 translation, used by every cursor."""
    if isinstance(exc, (SqlError, CatalogError, PlanError, SchemaError,
                        ExpressionError)):
        wrapped: Error = ProgrammingError(str(exc))
    elif isinstance(exc, QueryAborted):
        wrapped = OperationalError(str(exc))
    elif isinstance(exc, TypeError_):
        wrapped = DataError(str(exc))
    elif isinstance(exc, RecyclerError):
        wrapped = InternalError(str(exc))
    else:
        wrapped = DatabaseError(str(exc))
    wrapped.__cause__ = exc
    return wrapped


# ----------------------------------------------------------------------
# description type objects
# ----------------------------------------------------------------------
class DBAPITypeObject:
    """PEP 249 type object: compares equal to every member type code.

    ``description[i][1]`` is the column's
    :class:`~repro.columnar.types.DataType`; these singletons let
    portable callers test ``type_code == NUMBER`` etc.
    """

    def __init__(self, *names: str) -> None:
        self._names = frozenset(names)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DataType):
            return other.name in self._names
        if isinstance(other, str):
            return other in self._names
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DBAPITypeObject({', '.join(sorted(self._names))})"


NUMBER = DBAPITypeObject("INT64", "FLOAT64", "BOOL")
STRING = DBAPITypeObject("STRING")
DATETIME = DBAPITypeObject("DATE")
BINARY = DBAPITypeObject()  # no binary columns in this engine
ROWID = DBAPITypeObject()


def Date(year: int, month: int, day: int) -> datetime.date:
    """PEP 249 date constructor (DATE columns are day counts)."""
    return datetime.date(year, month, day)


def DateFromTicks(ticks: float) -> datetime.date:
    return datetime.date.fromtimestamp(ticks)


# ----------------------------------------------------------------------
# parameter substitution
# ----------------------------------------------------------------------
def _render_literal(value: object) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ProgrammingError(
                f"{value!r} parameters are not supported (no literal"
                " spells a non-finite number)")
        return repr(value)      # (may carry an exponent: ``1e-05``)
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if value is None:
        raise ProgrammingError(
            "None parameters are not supported (no NULL literal)")
    raise ProgrammingError(
        f"unsupported parameter type: {type(value).__name__}")


def _substitute(operation: str, parameters: Sequence) -> str:
    """Replace ``?`` placeholders (outside string literals) with
    rendered literals — client-side qmark binding."""
    out: list[str] = []
    params = iter(parameters)
    consumed = 0
    in_string = False
    i = 0
    while i < len(operation):
        ch = operation[i]
        if in_string:
            out.append(ch)
            if ch == "'":
                # '' inside a string is an escaped quote, not the end
                if i + 1 < len(operation) and operation[i + 1] == "'":
                    out.append("'")
                    i += 1
                else:
                    in_string = False
        elif ch == "'":
            in_string = True
            out.append(ch)
        elif ch == "?":
            try:
                value = next(params)
            except StopIteration:
                raise ProgrammingError(
                    f"operation has more placeholders than the"
                    f" {len(parameters)} parameter(s) given") from None
            out.append(_render_literal(value))
            consumed += 1
        else:
            out.append(ch)
        i += 1
    if consumed != len(parameters):
        raise ProgrammingError(
            f"operation has {consumed} placeholder(s) but"
            f" {len(parameters)} parameter(s) were given")
    return "".join(out)


# ----------------------------------------------------------------------
# connections & cursors
# ----------------------------------------------------------------------
def connect(database: Database | None = None, *,
            timeout: float | None = None, **db_kwargs) -> "Connection":
    """Open a DB-API connection.

    ``database`` attaches to an existing :class:`~repro.db.Database`
    (many connections may share one — they then share its recycler
    cache); without it a private in-memory database is created (extra
    keyword arguments go to its constructor) and closed with the
    connection.

    ``timeout`` is a default per-query deadline in seconds applied to
    every ``execute`` on this connection (override per call).
    """
    owns = database is None
    if database is None:
        database = Database(**db_kwargs)
    elif db_kwargs:
        raise InterfaceError(
            "database= and Database constructor arguments are mutually"
            " exclusive")
    return Connection(database, owns_database=owns,
                      default_timeout=timeout)


class Connection:
    """One PEP 249 connection onto a shared database."""

    #: PEP 249 optional extension: exception classes as attributes.
    Warning = Warning
    Error = Error
    InterfaceError = InterfaceError
    DatabaseError = DatabaseError
    DataError = DataError
    OperationalError = OperationalError
    IntegrityError = IntegrityError
    InternalError = InternalError
    ProgrammingError = ProgrammingError
    NotSupportedError = NotSupportedError

    def __init__(self, database: Database, owns_database: bool = False,
                 default_timeout: float | None = None) -> None:
        #: the underlying :class:`~repro.db.Database` — schema
        #: management (``register_table`` etc.) stays on it.
        self.database = database
        self._owns_database = owns_database
        self.default_timeout = default_timeout
        #: every cursor's queries are issued through this one session
        self._session = database.connect(frontend="dbapi")
        self.connection_id = self._session.session_id

    # -- internal ------------------------------------------------------
    def _check_open(self) -> None:
        if self._session.closed:
            raise InterfaceError("connection is closed")

    # -- PEP 249 -------------------------------------------------------
    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def commit(self) -> None:
        """No-op: queries are read-only over in-memory tables; DDL is
        applied immediately (auto-commit semantics)."""
        self._check_open()

    def rollback(self) -> None:
        raise NotSupportedError("transactions are not supported")

    def close(self) -> None:
        """Close the connection (idempotent).  A private database
        created by :func:`connect` is closed too; a shared one is left
        running for its other frontends."""
        if self._session.closed:
            return
        self._session.close()
        if self._owns_database:
            self.database.close()

    @property
    def closed(self) -> bool:
        return self._session.closed

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"Connection#{self.connection_id}({state})"


class Cursor:
    """A PEP 249 cursor: execute + fetch over one connection."""

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self.arraysize = 1
        self._closed = False
        self._row_iter = None  # lazy row source of the current result
        self._description: list[tuple] | None = None
        self._rowcount = -1
        #: observability: the largest row batch this cursor ever built
        #: at once.  Fetching streams from the columnar result
        #: (:meth:`~repro.columnar.table.Table.iter_rows`), so this
        #: stays at the ``fetchmany`` size however large the result —
        #: only ``fetchall`` materializes everything.
        self.max_buffered_rows = 0
        self._totals = QueryTotals()

    # -- internal ------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    def _run(self, sql: str, timeout: float | None) -> None:
        if timeout is None:
            timeout = self.connection.default_timeout
        try:
            result = self.connection._session.run(sql, label=sql,
                                                  timeout=timeout)
        except ReproError as exc:
            raise _map_error(exc) from exc
        table = result.table
        # Fetches pull lazily from the columnar result: peak buffered
        # rows is bounded by the fetch size, not the result size.
        self._row_iter = table.iter_rows()
        self._rowcount = table.num_rows
        self._description = [
            (name, dtype, None, None, None, None, None)
            for name, dtype in zip(table.schema.names,
                                   table.schema.types)]
        self._totals.add(result.record)

    @property
    def statistics(self) -> dict[str, float]:
        """Running totals over every ``execute`` on this cursor."""
        return self._totals.as_dict("queries", *CLIENT_COUNTERS)

    # -- PEP 249: execution --------------------------------------------
    def execute(self, operation: str, parameters: Sequence | None = None,
                timeout: float | None = None) -> "Cursor":
        """Execute one statement (``?`` placeholders bound from
        ``parameters``).  ``timeout`` (an extension) bounds this
        statement; the connection's ``default_timeout`` applies
        otherwise.  Returns the cursor (PEP 249 extension), so
        ``for row in cur.execute(...)`` reads naturally."""
        self._check_open()
        if parameters:
            operation = _substitute(operation, parameters)
        elif parameters is not None:
            _substitute(operation, ())  # still verify placeholder count
        self._run(operation, timeout)
        return self

    def executemany(self, operation: str,
                    seq_of_parameters: Iterable[Sequence]) -> "Cursor":
        """Run ``operation`` once per parameter set.  ``rowcount``
        totals the rows of all executions; the fetchable result is the
        last execution's."""
        self._check_open()
        total = 0
        ran = False
        for parameters in seq_of_parameters:
            self.execute(operation, parameters)
            total += self._rowcount
            ran = True
        if ran:
            self._rowcount = total
        return self

    # -- PEP 249: results ----------------------------------------------
    @property
    def description(self) -> list[tuple] | None:
        return self._description

    @property
    def rowcount(self) -> int:
        return self._rowcount

    def _result_iter(self):
        self._check_open()
        if self._row_iter is None:
            raise ProgrammingError("no query has been executed")
        return self._row_iter

    def fetchone(self) -> tuple | None:
        row = next(self._result_iter(), None)
        if row is not None:
            self.max_buffered_rows = max(self.max_buffered_rows, 1)
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        rows = self._result_iter()
        if size is None:
            size = self.arraysize
        batch = list(itertools.islice(rows, max(0, size)))
        self.max_buffered_rows = max(self.max_buffered_rows, len(batch))
        return batch

    def fetchall(self) -> list[tuple]:
        batch = list(self._result_iter())
        self.max_buffered_rows = max(self.max_buffered_rows, len(batch))
        return batch

    def __iter__(self) -> "Cursor":
        self._result_iter()
        return self

    def __next__(self) -> tuple:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- PEP 249: misc -------------------------------------------------
    def setinputsizes(self, sizes) -> None:  # noqa: ARG002
        """No-op (PEP 249 requires the method to exist)."""

    def setoutputsize(self, size, column=None) -> None:  # noqa: ARG002
        """No-op (PEP 249 requires the method to exist)."""

    def close(self) -> None:
        self._closed = True
        self._row_iter = None
        self._description = None

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
