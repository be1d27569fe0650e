"""Sessions: concurrent connections to one shared database.

The paper's throughput experiments (Section V, Figures 7–9) run many
concurrent query streams against a single recycler.  This module is the
real-threads counterpart of that setup:

* :class:`Session` — one logical connection.  Each query it issues
  carries a session-unique producer token, *blocks* when its rewrite
  matches a result some concurrent session is currently producing
  (in-flight sharing), and is counted in the session's running totals.
* :class:`SessionPool` — a fixed-size pool of worker threads, one
  session per worker, with ``submit``/``run`` for issuing SQL from the
  application thread.

Cancellation and deadlines: every query additionally carries a
:class:`~repro.engine.cancellation.CancellationToken`.
:meth:`Session.cancel` (any thread) trips it *and* retires the query's
producer token in the recycler, and ``execute(deadline=...)`` /
``sql(timeout=...)`` arm it with a monotonic deadline; the executing
query then aborts *mid-execution*, within one batch boundary, raising
:class:`~repro.errors.QueryCancelled` or
:class:`~repro.errors.QueryTimeout` — it does not run to completion,
and a query stalled on another's in-flight result wakes at once.
Aborted queries leave no recycler side effects (no cache entry, no
stale in-flight registration; stalled consumers are woken).

Usage::

    db = Database()
    db.register_table("t", table)

    with db.connect() as session:          # one extra connection
        session.sql("SELECT ...")

    with db.pool(workers=4) as pool:       # four concurrent sessions
        results = pool.run(["SELECT ...", "SELECT ..."])
    print(db.summary())                    # merged recycler view

The DB-API (:mod:`repro.dbapi`) and both servers (:mod:`repro.server`)
own one session per connection and issue every query through it, so
query identity and cancellation follow one rule.  Threads may share a
session (DB-API ``threadsafety == 2``): each call issues its own query
with its own tokens.  All cross-session coordination happens inside
the recycler, which is fully thread-safe.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .engine.cancellation import CancellationToken
from .engine.executor import QueryResult
from .errors import ReproError
from .plan.logical import PlanNode
from .recycler.recycler import QueryTotals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .db import Database

#: the :class:`QueryTotals` fields a session's and a pool's summary report
_SUMMED = ("queries", "total_cost", "num_reused", "num_materialized",
           "stall_seconds")


class SessionError(ReproError):
    """A session was used after close."""


class SessionQuery:
    """One query issued on a :class:`Session` (:meth:`Session.begin`):
    its producer token and its cancellation token."""

    __slots__ = ("session", "seq", "token", "cancel_token")

    def __init__(self, session: "Session", seq: int,
                 cancel_token: CancellationToken) -> None:
        self.session = session
        #: the query's number on its session (a server's stream id)
        self.seq = seq
        #: the producer token the recycler files the query's in-flight
        #: registrations under, unique across the database's frontends
        self.token = (session.frontend, session.session_id, seq)
        self.cancel_token = cancel_token

    def execute(self, query: str | PlanNode, *, label: str = "",
                snapshot=None, warm_only: bool = False) -> QueryResult | None:
        """Run the query through the shared
        :class:`~repro.exec_service.ExecutionService` under its tokens
        (a declined ``warm_only`` call leaves them unused, so the next
        call is still the query's one execution).  The service pins the
        snapshot, blocks on in-flight producers and abandons the
        prepared query if execution aborts or fails."""
        session = self.session
        result = session._db.service.execute(
            query, frontend=session.frontend, label=label,
            producer_token=self.token, block_on_inflight=True,
            cancel_token=self.cancel_token, snapshot=snapshot,
            remote=session._executor, warm_only=warm_only)
        if result is not None:
            with session._lock:
                session._totals.add(result.record)
        return result

    def cancel(self) -> None:
        """Trip the cancellation token (the executing thread stops
        within one batch boundary) *and* retire the producer token in
        the recycler: only that wakes a query stalled on another
        query's in-flight result — the token alone leaves it asleep
        until ``inflight_wait_timeout`` — drops its own registrations
        (waking queries stalled on *it*) and refuses any store it would
        plant later, so it never publishes a partial result."""
        self.cancel_token.cancel()
        self.session._db.recycler.cancel(self.token)


def cancel_sessions(sessions: list["Session"]) -> bool:
    """Abort every query in flight on ``sessions``, from any thread:
    trip every token, *then* retire the producer tokens
    (:meth:`SessionQuery.cancel`), so a query woken by a retired
    producer aborts instead of computing the result itself.  Returns
    True when there was a query to cancel."""
    active: list[SessionQuery] = []
    for session in sessions:
        with session._lock:
            active += session._active
    for query in active:
        query.cancel_token.cancel()
    for query in active:
        query.cancel()
    return bool(active)


class Session:
    """One logical connection to a :class:`~repro.db.Database`.

    Open with :meth:`Database.connect`; close with :meth:`close` or use
    as a context manager.  Threads may share a session; :meth:`cancel`
    (from any thread) aborts every query in flight on it.
    """

    def __init__(self, db: "Database", session_id: int,
                 executor: object | None = None,
                 frontend: str = "session") -> None:
        self._db = db
        self.session_id = session_id
        #: the caller's name in ``Database.summary()["service"]
        #: ["frontends"]`` and in every producer token of this session
        self.frontend = frontend
        #: optional :class:`~repro.engine.shard.pool.ShardRuntime` —
        #: cold queries on this session execute in a worker process
        #: (``Database.pool(mode="processes")`` wires one in).
        self._executor = executor
        #: absolute :func:`time.monotonic` deadline every query on this
        #: session inherits (a TCP connection's ``configure`` sets it).
        self.deadline: float | None = None
        self._closed = False
        #: guards the query sequence, :attr:`_active`, :attr:`_totals`
        #: and the :meth:`cancel_all` order, so a query is either
        #: registered before a cancel sweep or born cancelled after it.
        self._lock = threading.Lock()
        self._seq = 0
        self._active: set[SessionQuery] = set()
        self._cancel_all = False
        self._totals = QueryTotals()

    # ------------------------------------------------------------------
    def sql(self, text: str, label: str = "",
            timeout: float | None = None,
            deadline: float | None = None) -> QueryResult:
        """Parse, plan, and execute SQL text through the shared recycler.

        One catalog snapshot is pinned up front and covers binding,
        validation, rewriting, and execution, so a concurrent DDL on
        another session never changes what this statement reads.

        ``timeout`` (seconds from now) and ``deadline`` (absolute
        :func:`time.monotonic` timestamp) bound the execution; past
        either, the query aborts with
        :class:`~repro.errors.QueryTimeout`.  Given both, the earlier
        wins.
        """
        return self.run(text, label=label, timeout=timeout,
                        deadline=deadline)

    def execute(self, plan: PlanNode, label: str = "",
                timeout: float | None = None,
                deadline: float | None = None,
                snapshot=None) -> QueryResult:
        """Execute a prebuilt logical plan.

        Blocks while a concurrent session is producing a result this
        query would reuse, then reuses the materialized entry.  The
        wait counts against ``timeout``/``deadline`` (semantics as in
        :meth:`sql`), so a deadline fires even while stalled on another
        session's in-flight result.

        ``snapshot`` (a :class:`~repro.columnar.catalog.CatalogSnapshot`)
        pins the catalog view the query resolves against and asserts
        the plan was already validated under it.  Without it, a snapshot
        is pinned and the plan re-validated — a prebuilt plan whose
        table was dropped or re-typed by concurrent DDL fails with a
        clear error instead of deep inside operator construction.

        Raises :class:`~repro.errors.QueryCancelled` when
        :meth:`cancel` interrupts the query and
        :class:`~repro.errors.QueryTimeout` past the deadline; aborted
        queries are not counted in :meth:`summary`.
        """
        return self.run(plan, label=label, timeout=timeout,
                        deadline=deadline, snapshot=snapshot)

    def run(self, query: str | PlanNode, label: str = "",
            timeout: float | None = None,
            deadline: float | None = None,
            snapshot=None) -> QueryResult:
        """:meth:`begin` one query and execute it (:meth:`sql` and
        :meth:`execute` both land here)."""
        with self.begin(timeout=timeout, deadline=deadline) as issued:
            return issued.execute(query, label=label, snapshot=snapshot)

    @contextmanager
    def begin(self, timeout: float | None = None,
              deadline: float | None = None) -> Iterator[SessionQuery]:
        """Issue one query: mint its producer token, build its
        cancellation token from ``timeout`` / ``deadline`` and the
        session's :attr:`deadline` (the earliest wins) and register it
        for :meth:`cancel` until the ``with`` block ends."""
        if self._closed:
            raise SessionError(
                f"session {self.session_id} is closed")
        if self.deadline is not None:
            deadline = self.deadline if deadline is None \
                else min(deadline, self.deadline)
        cancel_token = CancellationToken(deadline=deadline,
                                         timeout=timeout)
        with self._lock:
            self._seq += 1
            query = SessionQuery(self, self._seq, cancel_token)
            self._active.add(query)
            born_cancelled = self._cancel_all
        if born_cancelled:
            query.cancel()
        try:
            yield query
        finally:
            with self._lock:
                self._active.discard(query)

    def cancel(self) -> bool:
        """Abort every query in flight on this session, from any thread
        (:func:`cancel_sessions`).  Returns True when there was a query
        to cancel."""
        return cancel_sessions([self])

    def cancel_all(self) -> bool:
        """:meth:`cancel` plus a standing order: every query this
        session *starts afterwards* is born cancelled and aborts at its
        first batch check.  Pool shutdown uses this so a query a worker
        dequeued but has not yet registered cannot slip past the cancel
        sweep and run to completion.  Returns :meth:`cancel`'s result."""
        with self._lock:
            self._cancel_all = True
        return self.cancel()

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """Running totals of the queries this session finished."""
        with self._lock:
            return {"session_id": self.session_id,
                    **self._totals.as_dict(*_SUMMED, "matching_seconds")}

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{self._totals.queries} queries"
        return f"Session#{self.session_id}({state})"


class SessionPool:
    """N worker threads, each owning one session on a shared database.

    Work is submitted from the application thread; every worker thread
    lazily opens its own :class:`Session` (so each session's
    :meth:`~Session.summary` counts one worker's queries), and up to
    ``workers`` queries run truly concurrently against the shared
    recycler.
    """

    def __init__(self, db: "Database", workers: int,
                 shard_runtime: object | None = None) -> None:
        if workers < 1:
            raise SessionError("pool needs at least one worker")
        self._db = db
        self.workers = workers
        #: process mode (``Database.pool(mode="processes")``): sessions
        #: opened by the worker threads execute cold plans on this
        #: shard runtime; closing the pool closes the runtime too.
        self._shard_runtime = shard_runtime
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-session")
        self._local = threading.local()
        self._sessions: list[Session] = []
        self._sessions_lock = threading.Lock()
        self._closed = False
        #: close(cancel_pending=True) in progress: sessions opened
        #: after its cancel sweep must still be born cancelled.
        self._cancelling = False

    # ------------------------------------------------------------------
    def _session(self) -> Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._db.connect(executor=self._shard_runtime)
            self._local.session = session
            with self._sessions_lock:
                self._sessions.append(session)
            # After publishing: either this read sees the shutdown flag,
            # or close()'s sweep (which sets the flag first) sees this
            # session in the list — a late-created session cannot dodge
            # both.
            if self._cancelling:
                session.cancel_all()
        return session

    def submit(self, query: str | PlanNode, label: str = "",
               timeout: float | None = None) -> "Future[QueryResult]":
        """Queue one query; returns a future for its result.

        ``timeout`` (seconds, measured from when the query *starts
        executing*, not from submission) bounds the execution; the
        future then raises :class:`~repro.errors.QueryTimeout`.
        """
        if self._closed:
            raise SessionError("pool is closed")
        return self._executor.submit(
            lambda: self._session().run(query, label=label,
                                        timeout=timeout))

    def run(self, queries: Iterable[str | PlanNode],
            labels: Sequence[str] | None = None,
            timeout: float | None = None) -> list[QueryResult]:
        """Execute ``queries`` across the pool; results in input order.

        ``timeout`` applies per query (see :meth:`submit`); a query
        that exceeds it makes this call raise
        :class:`~repro.errors.QueryTimeout`.
        """
        futures = [
            self.submit(query,
                        label=labels[i] if labels is not None else "",
                        timeout=timeout)
            for i, query in enumerate(queries)
        ]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    def sessions(self) -> list[Session]:
        with self._sessions_lock:
            return list(self._sessions)

    def summary(self) -> dict[str, object]:
        """Each session's summary, their sums and the recycler's view."""
        sessions = [session.summary() for session in self.sessions()]
        return {"sessions": len(sessions),
                **{key: sum(s[key] for s in sessions) for key in _SUMMED},
                "per_session": sessions, "recycler": self._db.summary()}

    def close(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Shut the pool down.

        With ``cancel_pending`` queued (not yet started) queries are
        dropped (their futures raise
        :class:`concurrent.futures.CancelledError`) and every *running*
        query is aborted mid-execution: it stops within one batch
        boundary and its future raises
        :class:`~repro.errors.QueryCancelled`.  A query blocked on an
        in-flight producer wakes immediately, and no aborted query can
        leave a store registration or cache entry behind.  With
        ``wait`` the shutdown joins the workers, which is quick now
        that running queries actually stop."""
        if self._closed:
            return
        self._closed = True
        if cancel_pending:
            # Drop the queue first, then cancel whatever already runs —
            # cancel_all also covers queries dequeued but not yet
            # registered, so nothing can slip past this one sweep.
            self._cancelling = True
            self._executor.shutdown(wait=False, cancel_futures=True)
            for session in self.sessions():
                session.cancel_all()
            if wait:
                self._executor.shutdown(wait=True)
        else:
            self._executor.shutdown(wait=wait)
        for session in self.sessions():
            session.close()
        if self._shard_runtime is not None:
            self._shard_runtime.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SessionPool(workers={self.workers})"
