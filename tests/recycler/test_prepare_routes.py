"""The recycler's cheaper prepare is invisible to every decision.

``Recycler.prepare`` stopped doing work it can skip on a cold statement:

* the graph's frontier walks (direct materialized descendants, the
  materialized frontier region and ancestor frontier) and the reference
  bookkeeping after matching are loops, not recursive closures;
* store planning walks the nodes reuse substitution kept, collected by
  substitution's own walk, instead of walking the substituted plan; it
  compares a node's dependency versions only once the catalog's DDL
  clock moved past the query's snapshot, and looks for a concurrent
  producer only when the in-flight registry holds one — as does stall
  collection;
* the root-hit memo reads its graph nodes off the matches, not a walk;
* a template instance takes its template plan's fingerprint as stripe
  key; a node's matching keys come from one walk of its expressions,
  memoized, its input columns carried over from the template — and its
  keys too where its own parameters hold no literal;
* a history store's benefit reuses the true cost its overhead test
  computed, instead of walking the direct materialized descendants
  again;
* subsumer lookup returns at once for a node without subsumption edges,
  the proactive rewrite removes a selection without a closure, a store
  sizes its table from the batches it counted, and the cache positions
  an entry by bisecting its size group directly.

A TPC-H stream and the time-series dashboard (appends included) replay
under ``off`` / ``hist`` / ``spec`` / ``pa`` with all of that patched
back to copies of the code it replaced, and then as it is.  Both
streams also run statements pinned to a snapshot a later append made
stale (so the DDL-clock gate is crossed) and statements issued while a
foreign producer holds graph nodes in the in-flight registry (so the
registry gate is crossed).  Result bytes, query records and costs, the
recycler state (counters, per-node statistics, cache content and
replacement order, cached bytes), every store request (node and mode),
every stall and the order of in-flight registrations must be equal.
"""

from __future__ import annotations

import bisect

import pytest

from repro.columnar.table import Table
from repro.engine.executor import QueryResult
from repro.plan.logical import CachedScan, PlanNode, signature_of
from repro.recycler import matching, proactive
from repro.recycler import recycler as recycler_module
from repro.recycler.benefit import BenefitModel
from repro.recycler.cache import RecyclerCache
from repro.recycler.graph import RecyclerGraph
from repro.recycler.inflight import InFlightRegistry
from repro.recycler.recycler import Recycler, RootHit
from repro.recycler.rewriter import (ReuseInfo, RewriteOutcome,
                                     StorePlanner, _extended_scan,
                                     appended_table, current_entry,
                                     recompute_is_cheaper)
from repro.recycler.striping import plan_fingerprint
from repro.recycler.subsumption import (SubsumptionIndex,
                                        build_compensation)
from repro.sql import sql_to_plan
from twin_replay import (RECORD_FIELDS, dashboard_stream, recycler_state,
                         table_bytes, tpch_stream)

FOREIGN = "foreign producer"


# ----------------------------------------------------------------------
# the replaced code, as it was
# ----------------------------------------------------------------------
def _old_dmds(self, node):
    out, seen = [], set()

    def descend(current):
        for child in current.children:
            if child.node_id in seen:
                continue
            seen.add(child.node_id)
            if child.is_materialized:
                out.append(child)
            else:
                descend(child)

    descend(node)
    return out


def _old_region(self, node):
    out, seen = [], set()

    def descend(current):
        for child in current.children:
            if child.node_id in seen:
                continue
            seen.add(child.node_id)
            out.append(child)
            if not child.is_materialized:
                descend(child)

    descend(node)
    return out


def _old_ancestors(self, node):
    out, seen = [], set()

    def climb(current):
        for parent in current.parents():
            if parent.node_id in seen:
                continue
            seen.add(parent.node_id)
            if parent.is_materialized:
                out.append(parent)
            else:
                climb(parent)

    climb(node)
    return out


def _old_record(self, plan, matches):
    credited, seen = [], set()

    def visit(node, blocked):
        match = matches.of(node)
        if match.inserted:
            blocked = False
        else:
            graph_node = match.graph_node
            if not blocked and graph_node.node_id not in seen:
                seen.add(graph_node.node_id)
                self.graph.add_refs(graph_node, 1.0)
                credited.append(graph_node)
            if graph_node.is_materialized:
                blocked = True
        for child in node.children:
            visit(child, blocked)

    visit(plan, False)
    return credited


def _old_benefit(self, node, size_override=None, cost=None):
    size = size_override if size_override is not None else node.size_bytes
    if size is None or size < 0:
        return 0.0
    refs = self.graph.effective_refs(node)
    return self.true_cost(node) * refs / max(size, 1)


def _old_substitute_reuse(plan, matches, graph, cache, subsumption, config,
                          catalog, cost_model):
    outcome = RewriteOutcome(plan=plan)

    def rewrite(node):
        match = matches.of(node)
        graph_node = match.graph_node
        entry = current_entry(graph_node, catalog)
        appended = None
        stale = graph_node.entry if entry is None else None
        if stale is not None:
            appended = appended_table(stale, catalog)
            if appended is not None:
                entry = stale
        if entry is not None and \
                recompute_is_cheaper(graph_node, cost_model):
            outcome.cost_skips += 1
            entry = None
        if entry is not None:
            rename = {g: q for q, g in match.mapping.items()}
            cache.note_reuse(entry)
            outcome.reuses.append(ReuseInfo(
                graph_node, graph_node,
                "exact" if appended is None else "extended"))
            if appended is not None:
                return _extended_scan(node, graph_node, entry, appended,
                                      rename, graph, cache, catalog)
            return CachedScan(entry, node.output_schema(catalog),
                              rename=rename,
                              label=f"reuse:{graph_node.node_id}")
        if subsumption is not None and config.subsumption:
            provider = subsumption.find_cached_subsumer(graph_node)
            if provider is not None and \
                    current_entry(provider, catalog) is not None:
                child_mapping = (matches.of(node.children[0]).mapping
                                 if node.children else {})
                compensation = build_compensation(
                    node, provider, match.mapping, child_mapping, catalog)
                if compensation is not None:
                    outcome.reuses.append(
                        ReuseInfo(graph_node, provider, "subsumption"))
                    cache.note_reuse(provider.entry)
                    graph.add_refs(provider, 1.0)
                    cache.refresh(provider)
                    return compensation
        new_children = [rewrite(child) for child in node.children]
        if all(new is old for new, old in
               zip(new_children, node.children)):
            return node
        replacement = node.with_children(new_children)
        matches.register(replacement, match)
        return replacement

    outcome.plan = rewrite(plan)
    del rewrite
    outcome.matches = matches       # for the old store planning walk
    return outcome


def _old_plan_stores(self, outcome, producer_token, on_complete, on_abort,
                     snapshot=None):
    matches = outcome.matches
    requests = {}       # (a ``StorePlan``'s, which had nothing else read)
    chosen = set()
    root = outcome.plan
    for node in root.walk():
        if isinstance(node, CachedScan) or not matches.contains(node):
            continue
        match = matches.of(node)
        graph_node = match.graph_node
        if graph_node.is_materialized or graph_node.node_id in chosen:
            continue
        if not self.graph.is_live(graph_node):
            continue
        if snapshot is not None and \
                self._snapshot_behind(graph_node, snapshot):
            continue
        if self.inflight.producer_of(graph_node) is not None:
            continue
        request = self._history_request(match, on_complete)
        if request is None:
            request = self._speculative_request(
                node, match, node is root, on_complete, on_abort)
        if request is None:
            continue
        if not self.inflight.register(graph_node, producer_token):
            continue
        requests[id(node)] = request
        chosen.add(graph_node.node_id)
    return requests


def _old_collect_stalls(self, plan, matches, token):
    stalls, seen = [], set()
    for node in plan.walk():
        if not matches.contains(node):
            continue
        graph_node = matches.of(node).graph_node
        if graph_node.node_id in seen:
            continue
        seen.add(graph_node.node_id)
        producer = self.inflight.producer_of(graph_node)
        if producer is not None and producer != token and \
                graph_node.entry is None:
            stalls.append(graph_node)
    return stalls


def _old_root_hit_of(cls, plan, matches, snapshot):
    root = matches.of(plan)
    return cls(plan, root.graph_node,
               tuple({matches.of(node).graph_node for node in plan.walk()}),
               matches.matched_count + matches.inserted_count,
               {g: q for q, g in root.mapping.items()},
               plan.output_schema(snapshot))


def _old_node_keys(node, mapping):
    return node.params_key(mapping), node.hashkey(), node.signature(mapping)


def _old_signature(self, mapping=None):
    mapping = mapping or {}
    return signature_of([mapping.get(c, c) for c in self._input_columns()])


def _old_remove_select(root, target):
    if root is target:
        return target.children[0]
    found = False

    def rebuild(node):
        nonlocal found
        if node is target:
            found = True
            return node.children[0]
        new_children = [rebuild(child) for child in node.children]
        if all(new is old for new, old in zip(new_children,
                                              node.children)):
            return node
        return node.with_children(new_children)

    result = rebuild(root)
    return result if found else None


def _old_find_cached_subsumer(self, node):
    with self._lock:
        return self._find_cached_subsumer(node)


def _old_insert_sorted(self, entry):
    # the insertion sequence is the cache's position tie-break
    # (``_locate`` bisects on it); the route is the benefit-only one
    self._seq += 1
    entry.seq = self._seq
    group = self._groups.setdefault(self.group_of(entry.size), [])
    keys = [e.benefit for e in group]
    group.insert(bisect.bisect_right(keys, entry.benefit), entry)


def _old_routes(patch) -> None:
    from_batches = Table.from_batches.__func__
    patch.setattr(RecyclerGraph, "dmds", _old_dmds)
    patch.setattr(RecyclerGraph, "materialized_frontier_region",
                  _old_region)
    patch.setattr(RecyclerGraph, "materialized_ancestor_frontier",
                  _old_ancestors)
    patch.setattr(BenefitModel, "record_query_references", _old_record)
    patch.setattr(BenefitModel, "benefit", _old_benefit)
    patch.setattr(recycler_module, "substitute_reuse",
                  _old_substitute_reuse)
    patch.setattr(StorePlanner, "plan_stores", _old_plan_stores)
    patch.setattr(Recycler, "_collect_stalls", _old_collect_stalls)
    patch.setattr(RootHit, "of", classmethod(_old_root_hit_of))
    patch.setattr(recycler_module, "stripe_key",
                  lambda statement, plan: plan_fingerprint(plan))
    patch.setattr(matching, "node_keys", _old_node_keys)
    patch.setattr(PlanNode, "input_columns",
                  lambda self: self._input_columns())
    patch.setattr(PlanNode, "signature", _old_signature)
    patch.setattr(proactive, "_remove_select", _old_remove_select)
    patch.setattr(SubsumptionIndex, "find_cached_subsumer",
                  _old_find_cached_subsumer)
    patch.setattr(Table, "from_batches", classmethod(
        lambda cls, schema, batches, nbytes=None:
            from_batches(cls, schema, batches)))
    patch.setattr(RecyclerCache, "_insert_sorted", _old_insert_sorted)


# ----------------------------------------------------------------------
# the streams, with stale snapshots and a foreign producer
# ----------------------------------------------------------------------
def _pin(db) -> None:
    db.pinned = db.catalog.snapshot()


def _grow(table: str):
    """Append a copy of ``table``'s rows: a version bump that leaves
    every snapshot pinned before it behind."""
    def run(db):
        db.append_rows(table, db.catalog.table(table))
    return run


def _stale(text: str):
    def run(db):
        return db.service.execute(text, snapshot=db.pinned)
    return run


def _prebuilt(text: str):
    """``text`` as a prebuilt plan: no root-hit memo, so the statement
    takes the slow path even when its root is cached."""
    def run(db):
        return db.execute(sql_to_plan(text, db.catalog.snapshot()))
    return run


def _hold(db) -> None:
    """The cache is flushed, and a producer of another session holds
    every graph node."""
    db.recycler.flush_cache()
    for node in list(db.recycler.graph.nodes):
        db.recycler.inflight.register(node, FOREIGN)


def _release(db) -> None:
    db.recycler.inflight.release_all(FOREIGN)


def _with_gates(stream, mode: str, table: str):
    """``stream``'s ops, a third of the way in two statements under a
    foreign producer, and two thirds in two statements pinned to the
    snapshot before ``table`` grew."""
    build, ops = stream(mode)
    texts = [op for op in ops if isinstance(op, str)]
    readers = [text for text in texts if table in text]
    third = len(ops) // 3
    return build, (ops[:third]
                   + [_hold, texts[1], _prebuilt(texts[1]),
                      _prebuilt(texts[2]), _release]
                   + ops[third:2 * third]
                   + [_pin, _grow(table), _stale(readers[0]),
                      _stale(readers[1])]
                   + ops[2 * third:])


class _Log:
    """Store requests, stalls and in-flight registrations, in order."""

    def __init__(self, patch) -> None:
        self.stores, self.stalls, self.registered = [], [], []
        self.behind = 0
        prepare, register = Recycler.prepare, InFlightRegistry.register
        snapshot_behind = StorePlanner._snapshot_behind

        def logged_prepare(recycler, *args, **kwargs):
            prepared = prepare(recycler, *args, **kwargs)
            if prepared is not None:
                self.stores.append([(request.tag.node_id, request.mode)
                                    for request in prepared.stores.values()])
                self.stalls.append([node.node_id
                                    for node in prepared.stalls])
            return prepared

        def logged_register(registry, node, token):
            won = register(registry, node, token)
            self.registered.append((node.node_id, token == FOREIGN, won))
            return won

        def counted_behind(planner, graph_node, snapshot):
            behind = snapshot_behind(planner, graph_node, snapshot)
            self.behind += behind
            return behind

        patch.setattr(Recycler, "prepare", logged_prepare)
        patch.setattr(InFlightRegistry, "register", logged_register)
        patch.setattr(StorePlanner, "_snapshot_behind", counted_behind)


def _replay(build, ops):
    db = build()
    try:
        produced = []
        for op in ops:
            result = op(db) if callable(op) else db.sql(op)
            if isinstance(result, QueryResult):
                produced.append((table_bytes(result.table),
                                 tuple(getattr(result.record, name)
                                       for name in RECORD_FIELDS)))
        db.recycler.graph.check_invariants()
        state = recycler_state(db)
        state["tables"] = {entry.node.node_id: table_bytes(entry.table)
                           for entry in db.recycler.cache.entries()}
        return produced, state
    finally:
        db.close()


@pytest.mark.parametrize("mode", ["off", "hist", "spec", "pa"])
@pytest.mark.parametrize("stream, table",
                         [(tpch_stream, "nation"),
                          (dashboard_stream, "metrics")],
                         ids=["tpch", "dashboard"])
def test_prepare_routes_are_invisible(monkeypatch, stream, table, mode):
    build, ops = _with_gates(stream, mode, table)
    with monkeypatch.context() as patched:
        _old_routes(patched)
        old = _Log(patched)
        want_produced, want_state = _replay(build, ops)
    new = _Log(monkeypatch)
    produced, state = _replay(build, ops)
    assert len(produced) == len(want_produced) > 20
    for index, (got, want) in enumerate(zip(produced, want_produced)):
        assert got == want, index
    for key in want_state:
        assert state[key] == want_state[key], key
    assert new.stores == old.stores
    assert new.stalls == old.stalls
    assert new.registered == old.registered
    if mode == "off":
        return
    # premise: stores were planned, a stale snapshot kept one off a node
    # it would have stored, and the foreign producer was stalled on
    assert any(new.stores) and state["counters"].admitted > 0
    assert new.behind > 0
    assert any(new.stalls)
    assert any(foreign for _, foreign, _ in new.registered)

