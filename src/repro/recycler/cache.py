"""The recycler cache (paper Sections II and III-E).

A finite in-memory store of materialized results.  Managed as a knapsack
along Dantzig's greedy lines: entries are classified into groups by the
logarithm of their size and kept in increasing-benefit order inside each
group.  Admission materializes while space lasts; replacement evicts a
lower-average-benefit set from the new result's own size group.

Admission and eviction drive the hR adjustments of Algorithm 2 / Eq. 4
through the :class:`~repro.recycler.benefit.BenefitModel`, and refresh the
benefits of every entry whose true cost or importance changed.

Catalog versioning: entries are tagged with the table/function versions
their result was computed from (the producing query's snapshot).
Admission re-checks those tags against the **live** catalog inside the
structure lock, immediately before publication — a producer that
finished scanning a table some concurrent DDL already replaced is
rejected (``counters.version_rejected``) instead of publishing a
permanently stale entry.  Because DDL bumps the version *before* its
invalidation sweep takes this same lock, every interleaving is covered:
an entry published before the sweep is evicted by it, and one
publishing after the sweep fails the version re-check.

Appends: an entry also records the row count of every table it read,
and :meth:`RecyclerCache.republish` swaps an entry for its result
extended over the rows appended since — same node, newer tags — under
the same lock and the same version gate (see
:mod:`repro.recycler.rewriter`, "append-aware recycling").
"""

from __future__ import annotations

import bisect
import operator
import threading
from dataclasses import dataclass, replace
from typing import Collection

from ..columnar.table import Table
from .benefit import BenefitModel
from .graph import GraphNode

#: an entry's position key within its size group is ``(benefit,
#: seq)``: its benefit, ties broken by the order of insertion
_benefit = operator.attrgetter("benefit")
_seq = operator.attrgetter("seq")


@dataclass(eq=False)
class CacheEntry:
    """One materialized result in the recycler cache.

    Compared by identity (``eq=False``): a node has at most one entry,
    and the cache finds it in its size group by bisecting on
    ``(benefit, seq)``, a key no other entry of the group shares
    (``RecyclerCache._locate``)."""

    node: GraphNode
    table: Table
    size: int
    benefit: float
    admitted_event: int
    reuse_count: int = 0
    last_used_event: int = 0
    #: table/function name -> version of the producing query's snapshot;
    #: ``None`` means untagged (direct ``admit`` calls, e.g. unit tests)
    #: and is treated as always-current.
    table_versions: dict[str, int] | None = None
    function_versions: dict[str, int] | None = None
    #: table name -> rows it held in the producing snapshot: the rows
    #: appended since are the ones from here on (``None``: untagged)
    table_rows: dict[str, int] | None = None
    #: when the entry last entered its size group, in the cache's
    #: insertion order: the tie-break of its position key
    seq: int = 0

    def versions_match(self, table_versions: dict[str, int],
                       function_versions: dict[str, int]) -> bool:
        """Whether this entry was computed from exactly the given
        versions (reuse gate: a query only consumes entries that agree
        with its own snapshot — in either direction)."""
        return (self.table_versions is None
                or (self.table_versions == table_versions
                    and (self.function_versions or {})
                    == function_versions))

    def current_in(self, catalog, tables: Collection[str],
                   functions: Collection[str]) -> bool:
        """:meth:`versions_match` against ``catalog``'s versions of the
        dependency sets ``tables`` / ``functions`` (a node's: no name
        twice), read in place — the reuse gate of every hit, which
        builds no dicts."""
        tags = self.table_versions
        if tags is None:
            return True
        if len(tags) != len(tables):
            return False
        for name in tables:
            if tags.get(name) != catalog.table_version(name):
                return False
        tags = self.function_versions or {}
        if len(tags) != len(functions):
            return False
        for name in functions:
            if tags.get(name) != catalog.function_version(name):
                return False
        return True


@dataclass
class CacheCounters:
    """Observability counters (tests, reports, ``Database.summary()``)."""

    admitted: int = 0
    rejected: int = 0
    evicted: int = 0
    reuses: int = 0
    flushes: int = 0
    invalidations: int = 0
    #: admissions refused because a DDL moved the catalog past the
    #: producing query's snapshot (the invalidate-then-swap race, closed)
    version_rejected: int = 0
    #: entries replaced by their result extended over appended rows
    #: (``RecyclerCache.republish``)
    extended: int = 0


class RecyclerCache:
    """Finite cache of recycled results with benefit-based policies."""

    def __init__(self, model: BenefitModel,
                 capacity: int | None = None,
                 live_versions=None) -> None:
        self.model = model
        self.capacity = capacity
        #: ``live_versions(tables, functions) -> (dict, dict)`` — the
        #: *live* catalog's :meth:`~repro.columnar.catalog.CatalogView.
        #: versions_for`; admission compares entry tags against it.
        #: ``None`` (legacy/unit-test construction) disables the check.
        self.live_versions = live_versions
        #: bytes of the entries in the size groups: changed only under
        #: ``_lock``, by ``_install`` and ``_unlink``
        self.used = 0
        self._groups: dict[int, list[CacheEntry]] = {}
        #: the last ``CacheEntry.seq`` handed out (under ``_lock``)
        self._seq = 0
        self.counters = CacheCounters()
        #: the one lock of the cache: reentrant, because eviction
        #: happens inside admission and the recycler holds a rewrite
        #: stripe around most cache calls.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        with self._lock:
            out: list[CacheEntry] = []
            for group in self._groups.values():
                out.extend(group)
            return out

    def __len__(self) -> int:
        with self._lock:
            return sum(len(g) for g in self._groups.values())

    @property
    def free(self) -> float:
        if self.capacity is None:
            return float("inf")
        return self.capacity - self.used

    @staticmethod
    def group_of(size: int) -> int:
        """Size group: logarithm of the footprint (paper Section III-E)."""
        return max(int(size).bit_length(), 1)

    # ------------------------------------------------------------------
    # admission & replacement
    # ------------------------------------------------------------------
    def would_admit(self, benefit: float, size: int) -> bool:
        """Dry-run of the admission decision (no mutation).

        Used at store-injection time (history mode) and by speculative
        store decisions at run time.
        """
        with self._lock:
            if self.capacity is not None and size > self.capacity:
                return False
            if size <= self.free:
                return True
            return self._find_victims(benefit, size) is not None

    def admit(self, node: GraphNode, table: Table,
              table_versions: dict[str, int] | None = None,
              function_versions: dict[str, int] | None = None,
              table_rows: dict[str, int] | None = None) -> bool:
        """Materialize ``node``'s result into the cache (atomically).

        Returns False when the replacement policy rejects it.  On success
        the hR values of the node's (potential) DMDs are reduced
        (Algorithm 2) and all affected cached benefits are refreshed.

        ``table_versions`` / ``function_versions`` tag the entry with
        the versions the producing query's snapshot read.  Tagged
        admission is re-validated against the live catalog **inside the
        structure lock, immediately before publication** — the only
        point where it races neither a version bump nor the invalidation
        sweep (both serialize on this lock; see the module docstring).
        ``table_rows`` records the rows each of those tables held.
        """
        size = table.nbytes()
        with self._lock:
            if node.entry is not None:
                return True  # already cached (e.g. by a concurrent query)
            if self._versions_behind(table_versions, function_versions):
                return False
            benefit = self.model.benefit(node, size_override=size)
            if not self._reserve(benefit, size):
                self.counters.rejected += 1
                return False
            self._install(CacheEntry(node=node, table=table, size=size,
                                     benefit=benefit,
                                     admitted_event=self.model.graph.event,
                                     table_versions=table_versions,
                                     function_versions=function_versions,
                                     table_rows=table_rows))
            self.counters.admitted += 1
            adjusted = self.model.on_admit(node)
            self._refresh_affected(node, adjusted)
            return True

    def _reserve(self, benefit: float, size: int) -> bool:
        """Make room for ``size`` bytes of a result of ``benefit``:
        when free space is short, evict a lower-benefit victim set from
        its size group; False, with nothing evicted, when there is none.
        Caller holds ``_lock``."""
        if size <= self.free:
            return True
        victims = self._find_victims(benefit, size)
        if victims is None:
            return False
        for victim in victims:
            self.evict(victim)
        return True

    def republish(self, old: CacheEntry, table: Table,
                  table_versions: dict[str, int],
                  function_versions: dict[str, int],
                  table_rows: dict[str, int]) -> bool:
        """Replace ``old`` by ``table`` — its result extended over the
        rows appended since it was computed — tagged with the newer
        versions and row counts.  The node stays materialized, so no
        Algorithm-2 adjustment runs, and the entry keeps its reuse
        history.

        Refused, with ``old`` left in place, when ``old`` is no longer
        its node's entry (a concurrent reader republished first, or a
        sweep evicted it) or the live catalog has moved past the new
        tags (``version_rejected``; the next reader extends ``old``
        over a longer run of rows).  When the grown result does not fit
        — no victim set in its size group — the node loses its entry:
        an ordinary eviction.
        """
        size = table.nbytes()
        node = old.node
        with self._lock:
            if node.entry is not old or \
                    self._versions_behind(table_versions,
                                          function_versions):
                return False
            # Out of its size group (so never its own victim), bytes
            # returned, but still the node's entry: evictions made for
            # the grown result see the node materialized, as it stays.
            self._unlink(old)
            benefit = self.model.benefit(node, size_override=size)
            if not self._reserve(benefit, size):
                self._evicted(old)
                return False
            self._install(replace(old, table=table, size=size,
                                  benefit=benefit,
                                  table_versions=table_versions,
                                  function_versions=function_versions,
                                  table_rows=table_rows))
            self.counters.extended += 1
            return True

    def _versions_behind(self, table_versions: dict[str, int] | None,
                         function_versions: dict[str, int] | None) -> bool:
        """Version-tagged admission gate (caller holds ``_lock``): True
        when a DDL moved the live catalog past the producer's snapshot,
        i.e. the result was computed from a table that no longer
        exists in that incarnation."""
        if table_versions is None or self.live_versions is None:
            return False
        live_tables, live_functions = self.live_versions(
            table_versions, function_versions or {})
        if live_tables == table_versions and \
                live_functions == (function_versions or {}):
            return False
        self.counters.version_rejected += 1
        return True

    def _install(self, entry: CacheEntry) -> None:
        """Make ``entry``, whose bytes ``_reserve`` made room for, its
        node's.  Caller holds ``_lock``."""
        # Reuse scans slice these arrays zero-copy and a full-plan hit
        # returns them as the query's result: a caller writing through
        # its result must fail, not corrupt every later hit.
        entry.table.freeze()
        entry.node.entry = entry
        self.model.graph.costs_moved()
        self.used += entry.size
        self._insert_sorted(entry)

    def _find_victims(self, benefit: float,
                      size: int) -> list[CacheEntry] | None:
        """Dantzig-style greedy scan for an eviction set.

        Scans the new result's size group in increasing benefit order,
        tracking the victims' total size and average benefit, until either
        the average exceeds the new result's benefit (reject) or enough
        space is freed (accept).
        """
        pool = self._groups.get(self.group_of(size), [])
        victims: list[CacheEntry] = []
        freed = self.free
        benefit_sum = 0.0
        for entry in pool:
            candidate_avg = (benefit_sum + entry.benefit) \
                / (len(victims) + 1)
            if candidate_avg >= benefit:
                return None
            victims.append(entry)
            benefit_sum += entry.benefit
            freed += entry.size
            if freed >= size:
                return victims
        return None

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def evict(self, entry: CacheEntry) -> None:
        """Remove an entry; restores descendants' hR via Eq. 4."""
        with self._lock:
            if self._unlink(entry):  # else a concurrent sweep evicted it
                self._evicted(entry)

    def _unlink(self, entry: CacheEntry) -> bool:
        """Take ``entry`` out of its size group and return its bytes;
        False when it was not there.  Caller holds ``_lock``."""
        group, at = self._locate(entry)
        if group is None:
            return False
        del group[at]
        self.used -= entry.size
        return True

    def _evicted(self, entry: CacheEntry) -> None:
        """``entry``'s node is no longer materialized: Eq. 4.  Caller
        holds ``_lock``."""
        entry.node.entry = None
        self.model.graph.costs_moved()
        self.counters.evicted += 1
        adjusted = self.model.on_evict(entry.node)
        self._refresh_affected(entry.node, adjusted)

    def flush(self) -> int:
        """Evict everything (simulates update-driven invalidation of the
        whole cache between query batches, as in the paper's Fig. 6)."""
        with self._lock:
            entries = self.entries()
            for entry in entries:
                self.evict(entry)
            self.counters.flushes += 1
            return len(entries)

    def invalidate_table(self, table: str, keep=None) -> int:
        """Evict every cached result that reads ``table`` (paper: evict
        dependents when a transaction commits updates), except those
        ``keep(entry)`` holds for."""
        with self._lock:
            victims = [e for e in self.entries()
                       if _depends_on_table(e.node, table)
                       and not (keep is not None and keep(e))]
            for victim in victims:
                self.evict(victim)
            self.counters.invalidations += len(victims)
            return len(victims)

    def invalidate_function(self, function: str) -> int:
        """Evict every cached result derived from a table function."""
        with self._lock:
            victims = [e for e in self.entries()
                       if _depends_on_function(e.node, function)]
            for victim in victims:
                self.evict(victim)
            self.counters.invalidations += len(victims)
            return len(victims)

    # ------------------------------------------------------------------
    # benefit refresh & bookkeeping
    # ------------------------------------------------------------------
    def note_reuse(self, entry: CacheEntry) -> None:
        with self._lock:
            entry.reuse_count += 1
            entry.last_used_event = self.model.graph.event
            self.counters.reuses += 1
            self.refresh(entry.node)

    def refresh(self, node: GraphNode) -> None:
        """Recompute a cached node's benefit and re-position its entry."""
        with self._lock:
            entry = node.entry
            if entry is None:
                return
            group, at = self._locate(entry)
            if group is None:
                return  # unlinked while ``republish`` replaces it
            del group[at]
            entry.benefit = self.model.benefit(node,
                                               size_override=entry.size)
            self._insert_sorted(entry)

    def _refresh_affected(self, node: GraphNode,
                          adjusted: list[GraphNode]) -> None:
        """After (de)materializing ``node``: descendants whose hR changed
        and materialized ancestors whose true cost changed."""
        for descendant in adjusted:
            if descendant.is_materialized:
                self.refresh(descendant)
        for ancestor in self.model.graph.materialized_ancestor_frontier(
                node):
            self.refresh(ancestor)

    def _locate(self, entry: CacheEntry
                ) -> tuple[list[CacheEntry] | None, int]:
        """``entry``'s size group and its index there, or ``(None, 0)``
        when it is not in the group.  A group is in ``(benefit, seq)``
        order, no two entries share that key, and it changes only while
        the entry is out of its group, so a bisection on it lands on
        the entry itself: on the benefit, and on ``seq`` only inside a
        run of tied benefits.  Caller holds ``_lock``."""
        group = self._groups.get(self.group_of(entry.size))
        if group:
            benefit = entry.benefit
            at = bisect.bisect_left(group, benefit, key=_benefit)
            if at < len(group) and group[at] is not entry:
                # inside a run of tied benefits: bisect it on ``seq``
                end = bisect.bisect_right(group, benefit, lo=at,
                                          key=_benefit)
                at = bisect.bisect_left(group, entry.seq, lo=at, hi=end,
                                        key=_seq)
            if at < len(group) and group[at] is entry:
                return group, at
        return None, 0

    def _insert_sorted(self, entry: CacheEntry) -> None:
        """Put ``entry`` in its size group under a fresh ``seq``: last
        among the entries of its benefit, where a bisection on the
        benefit alone would put it.  Caller holds ``_lock``."""
        self._seq += 1
        entry.seq = self._seq
        group = self._groups.setdefault(self.group_of(entry.size), [])
        group.insert(bisect.bisect_right(group, entry.benefit,
                                         key=_benefit), entry)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Cache consistency (tests): accounting and group ordering."""
        with self._lock:
            self._check_invariants()

    def _check_invariants(self) -> None:
        total = 0
        for bucket, group in self._groups.items():
            keys = [(e.benefit, e.seq) for e in group]
            assert all(a < b for a, b in zip(keys, keys[1:])), \
                f"group {bucket} not in strict (benefit, seq) order"
            for at, entry in enumerate(group):
                assert self.group_of(entry.size) == bucket
                assert entry.node.entry is entry
                assert 0 < entry.seq <= self._seq
                assert self._locate(entry) == (group, at)
                total += entry.size
        assert total == self.used, f"used={self.used} actual={total}"
        if self.capacity is not None:
            assert self.used <= self.capacity


def _depends_on_table(node: GraphNode, table: str) -> bool:
    return table.lower() in node.tables


def _depends_on_function(node: GraphNode, function: str) -> bool:
    return function.lower() in node.functions
