"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TypeError_(ReproError):
    """A value or column has an unexpected or unsupported data type."""


class SchemaError(ReproError):
    """A schema is malformed, or two schemas that must agree do not."""


class CatalogError(ReproError):
    """A table, column, or table function is unknown to the catalog."""


class ExpressionError(ReproError):
    """An expression is malformed or cannot be evaluated."""


class PlanError(ReproError):
    """A logical plan is malformed (bad arity, unknown column, ...)."""


class SqlError(ReproError):
    """SQL text could not be lexed, parsed, or bound."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class ExecutionError(ReproError):
    """A physical operator failed while producing tuples."""


class QueryAborted(ExecutionError):
    """A query stopped before completion (cooperative cancellation).

    Base class for :class:`QueryCancelled` and :class:`QueryTimeout`;
    catch this to handle both.  Aborted queries leave no recycler side
    effects: no cache entry is published and the query's in-flight
    registrations are released.
    """


class QueryCancelled(QueryAborted):
    """The query's :class:`~repro.engine.cancellation.CancellationToken`
    was cancelled (``Session.cancel``, pool shutdown, ...)."""


class QueryTimeout(QueryAborted):
    """The query ran past its deadline (``Database.sql(timeout=...)`` /
    ``Session.execute(deadline=...)``)."""


class RecyclerError(ReproError):
    """The recycler graph or cache reached an inconsistent state."""


class ConcurrencyConflict(RecyclerError):
    """Optimistic insertion into the recycler graph detected a conflict.

    The caller is expected to re-run matching for the conflicting node,
    mirroring the backwards-validation restart described in the paper
    (Section III-B).
    """


class ServerError(ReproError):
    """A server-side failure relayed over the wire protocol (the
    server's typed error frames map back onto the library hierarchy
    where possible; anything else arrives as this class)."""

    def __init__(self, message: str, error_type: str = "") -> None:
        super().__init__(message)
        #: the server-reported error class name (observability).
        self.error_type = error_type


class ServerOverloaded(ServerError):
    """Admission control rejected the query: the server's in-flight
    limit is reached and its accept queue is full.  Deliberate
    backpressure — retry later rather than queueing unboundedly."""


class ServerUnavailable(ServerError):
    """The server is draining for shutdown (or already gone) and
    accepts no new queries."""


class ProtocolError(ServerError):
    """A malformed frame or request crossed the wire (bad header,
    oversized, undecodable, wrong protocol version, non-numeric
    timeout)."""


class WorkloadError(ReproError):
    """A workload generator was asked for something it cannot produce."""


class HarnessError(ReproError):
    """The experiment harness was misconfigured."""
