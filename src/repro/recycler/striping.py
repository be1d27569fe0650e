"""Striped locks for the recycler's rewrite/finalize critical sections.

One lock around every rewrite and finalize would serialize sessions
even when their plans share nothing.  The stripe table shards it: each
query hashes its *stripe key* (:func:`stripe_key`) — the fingerprint of
its plan, or of the statement template's plan the plan was substituted
from — to one of ``LOCK_STRIPES`` stripes, so

* two sessions rewriting the **same** plan shape land on the same stripe
  and stay serialized (store planning's check-then-register on a shared
  node must not interleave) — as do two texts of one statement
  template, which differ only in literal values, while
* sessions rewriting **disjoint** subgraphs proceed fully in parallel.

Plans that are distinct but share interior subtrees may land on
different stripes; correctness there rests on the per-structure locks
(graph / cache / in-flight registry are each internally synchronized)
and on store planning honouring the in-flight registry's
first-registration-wins verdict (see ``StorePlanner.plan_stores``).
Under the GIL the stripes were measured to make no consistent
difference; they are kept for an interpreter without one.

The fingerprint hash is salted per-process (``hash`` of tuples of
strings follows ``PYTHONHASHSEED``), which is fine: stripe assignment
only needs to be stable *within* a process, and query results are
required to be identical under any assignment — the stress suite pins
``PYTHONHASHSEED`` and checks exactly that.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from ..plan.logical import PlanNode

if TYPE_CHECKING:
    from ..exec_service import Statement


def plan_fingerprint(plan: PlanNode) -> int:
    """The fingerprint of a plan (what :func:`stripe_key` reads): a hash
    of the anchor hashes over the whole subgraph.

    Hashes the walk-order ``(op, params)`` pairs — mapping-independent,
    so re-issues of one query pattern (different sessions, different
    aliases) collide on purpose while distinct patterns spread across
    stripes.  The root hash key alone would be far too coarse (every
    ``GROUP BY`` query shares ``("aggregate", 1)``), collapsing all
    aggregation traffic onto one stripe.

    Memoized on the root node: plans are structurally immutable, and a
    cached statement (:mod:`repro.exec_service`) presents the same plan
    object on every repeat, so prepare and finalize pay the walk once.
    Only the hash is kept — the pairs themselves run to kilobytes per
    retained TPC-H plan.
    """
    fingerprint = plan._fingerprint_cache
    if fingerprint is None:
        fingerprint = plan._fingerprint_cache = hash(tuple(
            (node.op_name, node.params_key(None)) for node in plan.walk()))
    return fingerprint


def stripe_key(statement: Statement, plan: PlanNode) -> int:
    """The stripe key of ``plan``, the plan ``statement`` runs.

    A statement substituted from a template's plan (``statement.template``)
    and running that plan unpruned keys on the template plan's
    fingerprint, memoized once for every text of the template: its own
    plan is a new object per text, and walking it would cost every cold
    statement a hash over the whole tree.  Two such texts differ only in
    literal values, so they would spread over stripes by value alone.
    Any other plan — prebuilt, window-pruned (``Statement.variant``) —
    keys on its own fingerprint."""
    template = statement.template
    if template is not None and plan is statement.plan:
        return plan_fingerprint(template.plan)
    return plan_fingerprint(plan)


#: rewrite/finalize lock stripes per recycler
LOCK_STRIPES = 16


class LockStripes:
    """A fixed table of reentrant locks indexed by key hash."""

    def __init__(self) -> None:
        self._locks = tuple(threading.RLock()
                            for _ in range(LOCK_STRIPES))

    def for_key(self, key: object) -> threading.RLock:
        """The stripe guarding ``key`` (stable within this process)."""
        return self._locks[hash(key) % LOCK_STRIPES]

    @contextmanager
    def all(self) -> Iterator[None]:
        """Acquire every stripe (table-order, so nested ``all()`` calls
        cannot deadlock) — used by whole-recycler maintenance such as
        truncation and cache flushes that must exclude all rewrites."""
        acquired = []
        try:
            for lock in self._locks:
                lock.acquire()
                acquired.append(lock)
            yield
        finally:
            for lock in reversed(acquired):
                lock.release()
