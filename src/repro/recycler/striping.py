"""Striped locks for the recycler's rewrite/finalize critical sections.

One lock around every rewrite and finalize would serialize sessions
even when their plans share nothing.  The stripe table shards it: each
query hashes its *plan-subgraph fingerprint* — the root anchor hash key
of the (sub)plan it rewrites — to one of ``LOCK_STRIPES`` stripes, so

* two sessions rewriting the **same** plan shape land on the same stripe
  and stay serialized (store planning's check-then-register on a shared
  node must not interleave), while
* sessions rewriting **disjoint** subgraphs proceed fully in parallel.

Plans that are distinct but share interior subtrees may land on
different stripes; correctness there rests on the per-structure locks
(graph / cache / in-flight registry are each internally synchronized)
and on store planning honouring the in-flight registry's
first-registration-wins verdict (see ``StorePlanner.plan_stores``).

The fingerprint hash is salted per-process (``hash`` of tuples of
strings follows ``PYTHONHASHSEED``), which is fine: stripe assignment
only needs to be stable *within* a process, and query results are
required to be identical under any assignment — the stress suite pins
``PYTHONHASHSEED`` and checks exactly that.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from ..plan.logical import PlanNode


def plan_fingerprint(plan: PlanNode) -> int:
    """The stripe key of a plan: a hash of the anchor hashes over the
    whole subgraph.

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
