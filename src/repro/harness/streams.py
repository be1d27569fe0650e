"""Virtual-time multi-stream throughput simulator.

The paper's TPC-H experiments (Figures 7–9) run 4–256 concurrent query
streams on a 12-way-parallel server, with the recycler stalling queries
that share an in-flight materialization.  This simulator reproduces those
scheduling dynamics deterministically:

* queries execute *for real* (single-threaded, in virtual-start order)
  against the shared recycler, producing deterministic cost units;
* a discrete-event scheduler advances a virtual clock: ``workers`` query
  slots, FIFO admission, per-stream sequential issue;
* a query whose rewrite reuses a result whose producer is still running
  (in virtual time) **stalls** until the producer's completion — the
  paper's "the recycler stalls all but one";
* a query's virtual duration is ``total_cost / speed``.

Approximation (documented in DESIGN.md): results become reusable at their
producing *query's* completion time rather than at the earlier moment the
store operator finished, making stalls slightly conservative.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..columnar.batch import VECTOR_SIZE
from ..columnar.catalog import Catalog
from ..engine.executor import execute_plan
from ..plan.logical import PlanNode
from ..recycler.recycler import QueryRecord, Recycler
from ..sql import sql_to_plan

#: deterministic cost units per virtual millisecond.
DEFAULT_SPEED = 100.0


@dataclass
class QueryTrace:
    """Everything recorded about one query's (virtual) execution."""

    stream: int
    index: int
    label: str
    t_enqueue: float
    t_start: float      # got a worker
    t_finish: float
    stall: float        # waited for an in-flight shared result
    duration: float     # pure execution time (cost / speed)
    cost: float
    num_reused: int
    num_materialized: int
    reused_nodes: tuple[int, ...] = ()
    materialized_nodes: tuple[int, ...] = ()
    #: what ``Recycler.finalize`` returned for the query
    record: QueryRecord | None = None

    @property
    def wait(self) -> float:
        """Queue wait for a worker (excluded in the paper's Fig. 8)."""
        return self.t_start - self.t_enqueue

    @property
    def response(self) -> float:
        """Stall + execution (what Fig. 8 reports)."""
        return self.t_finish - self.t_start


@dataclass
class SimulationResult:
    """Output of one multi-stream run."""

    traces: list[QueryTrace] = field(default_factory=list)
    stream_times: list[float] = field(default_factory=list)
    makespan: float = 0.0

    def average_stream_time(self) -> float:
        if not self.stream_times:
            return 0.0
        return sum(self.stream_times) / len(self.stream_times)

    def per_label_response(self) -> dict[str, float]:
        """Average response (stall + execution) per query label."""
        sums: dict[str, list[float]] = {}
        for trace in self.traces:
            sums.setdefault(trace.label, []).append(trace.response)
        return {label: sum(v) / len(v) for label, v in sums.items()}

    def total_cost(self) -> float:
        return sum(t.cost for t in self.traces)


class StreamSimulator:
    """Discrete-event scheduler over a shared recycler."""

    def __init__(self, catalog: Catalog, recycler: Recycler,
                 workers: int = 12, speed: float = DEFAULT_SPEED,
                 plan_source: Callable[[object], PlanNode] | None = None
                 ) -> None:
        self.catalog = catalog
        self.recycler = recycler
        self.workers = workers
        self.speed = speed
        self._plan_source = plan_source or self._default_plan_source

    def _default_plan_source(self, query) -> PlanNode:
        if isinstance(query, PlanNode):
            return query
        sql = getattr(query, "sql", None)
        if sql is None and isinstance(query, str):
            sql = query
        if sql is None:
            raise TypeError(f"cannot derive a plan from {query!r}")
        return sql_to_plan(sql, self.catalog)

    @staticmethod
    def _label_of(query, stream: int, index: int) -> str:
        return getattr(query, "label", f"s{stream}q{index}")

    # ------------------------------------------------------------------
    def run(self, streams: Sequence[Sequence[object]]) -> SimulationResult:
        result = SimulationResult()
        events: list[tuple[float, int, str, tuple]] = []
        sequence = 0

        def push(time: float, kind: str, payload: tuple) -> None:
            nonlocal sequence
            heapq.heappush(events, (time, sequence, kind, payload))
            sequence += 1

        ready: list[tuple[int, int, float]] = []   # FIFO worker queue
        free_workers = self.workers
        next_index = [0] * len(streams)
        stream_start = [None] * len(streams)
        stream_end = [0.0] * len(streams)
        node_ready: dict[int, float] = {}

        for stream_id in range(len(streams)):
            push(0.0, "arrive", (stream_id,))

        def dispatch(now: float) -> None:
            nonlocal free_workers
            while free_workers > 0 and ready:
                stream_id, index, t_enqueue = ready.pop(0)
                free_workers -= 1
                trace = self._run_query(streams[stream_id][index],
                                        stream_id, index, t_enqueue, now,
                                        node_ready)
                result.traces.append(trace)
                stream_end[stream_id] = max(stream_end[stream_id],
                                            trace.t_finish)
                push(trace.t_finish, "finish", (stream_id,))

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if kind == "arrive":
                stream_id = payload[0]
                index = next_index[stream_id]
                if index >= len(streams[stream_id]):
                    continue
                next_index[stream_id] += 1
                if stream_start[stream_id] is None:
                    stream_start[stream_id] = now
                ready.append((stream_id, index, now))
                dispatch(now)
            else:  # finish
                free_workers += 1
                stream_id = payload[0]
                push(now, "arrive", (stream_id,))
                dispatch(now)

        for stream_id in range(len(streams)):
            start = stream_start[stream_id] or 0.0
            result.stream_times.append(stream_end[stream_id] - start)
        result.makespan = max(stream_end) if len(streams) else 0.0
        return result

    # ------------------------------------------------------------------
    def _run_query(self, query, stream_id: int, index: int,
                   t_enqueue: float, now: float,
                   node_ready: dict[int, float]) -> QueryTrace:
        plan = self._plan_source(query)
        label = self._label_of(query, stream_id, index)
        prepared = self.recycler.prepare(
            plan, producer_token=(stream_id, index))
        exec_result = execute_plan(
            prepared.executed_plan,
            # the snapshot prepare pinned — the virtual-time harness
            # never runs DDL, but execution must agree with the rewrite
            prepared.snapshot or self.catalog,
            stores=prepared.stores,
            vector_size=VECTOR_SIZE,
            cost_model=self.recycler.cost_model,
            query_id=prepared.query_id)
        record = self.recycler.finalize(prepared, exec_result.stats,
                                        label=label)

        stall_until = now
        reused_nodes = []
        for reuse in prepared.reuses:
            reused_nodes.append(reuse.provider.node_id)
            ready_at = node_ready.get(reuse.provider.node_id)
            if ready_at is not None and ready_at > stall_until:
                stall_until = ready_at
        duration = exec_result.stats.total_cost / self.speed
        finish = stall_until + duration

        materialized = []
        for request in prepared.stores.values():
            graph_node = request.tag
            if graph_node is not None and graph_node.is_materialized:
                materialized.append(graph_node.node_id)
                node_ready[graph_node.node_id] = finish

        return QueryTrace(
            stream=stream_id, index=index, label=label,
            t_enqueue=t_enqueue, t_start=now, t_finish=finish,
            stall=stall_until - now, duration=duration,
            cost=exec_result.stats.total_cost,
            num_reused=len(prepared.reuses),
            num_materialized=len(materialized),
            reused_nodes=tuple(reused_nodes),
            materialized_nodes=tuple(materialized), record=record)
