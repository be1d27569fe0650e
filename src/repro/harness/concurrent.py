"""Real-threads multi-stream throughput harness.

The OS-thread counterpart of :mod:`repro.harness.streams`: where the
virtual-time simulator *schedules* stalls deterministically, this runner
actually executes the paper's Fig. 7 stream setup — one session per
query stream, every stream on its own thread, all sharing one
:class:`~repro.db.Database` — and measures wall-clock throughput.
Queries genuinely block on in-flight materializations (the recycler's
condition-variable registry) and wake when the producer's store
completes.

``workers`` mirrors the paper's query slots: at most that many queries
execute simultaneously, enforced with a semaphore under FIFO admission,
while streams stay sequential internally.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..db import Database
from ..engine.executor import QueryResult
from ..plan.logical import PlanNode
from ..recycler.recycler import QueryRecord


@dataclass
class ThreadedQueryTrace:
    """Everything recorded about one query's (wall-clock) execution."""

    stream: int
    index: int
    label: str
    t_start: float        # seconds since run start, slot acquired
    t_finish: float
    #: the query's figures (``stall_seconds``: blocked in flight)
    record: QueryRecord
    rows: int
    #: retained only when the runner keeps results (tests, verification).
    result: QueryResult | None = None

    @property
    def response(self) -> float:
        """Stall + execution, the Fig. 8 quantity."""
        return self.t_finish - self.t_start


@dataclass
class ConcurrentRunResult:
    """Output of one real-threads multi-stream run."""

    workers: int
    traces: list[ThreadedQueryTrace] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def queries(self) -> int:
        return len(self.traces)

    @property
    def throughput_qps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.queries / self.wall_seconds

    def total_cost(self) -> float:
        return sum(t.record.total_cost for t in self.traces)

    def total_stall_seconds(self) -> float:
        return sum(t.record.stall_seconds for t in self.traces)

    def num_reused(self) -> int:
        return sum(t.record.num_reused for t in self.traces)

    def rows_by_query(self) -> dict[tuple[int, int], int]:
        return {(t.stream, t.index): t.rows for t in self.traces}

    def summary(self) -> dict[str, object]:
        return {
            "workers": self.workers,
            "queries": self.queries,
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "total_cost": self.total_cost(),
            "total_stall_seconds": self.total_stall_seconds(),
            "num_reused": self.num_reused(),
        }


class ConcurrentStreamRunner:
    """Run query streams on real threads against one shared database."""

    def __init__(self, db: Database, workers: int | None = None,
                 keep_results: bool = False, executor=None) -> None:
        self.db = db
        #: simultaneous query slots; ``None`` = one per stream.
        self.workers = workers
        self.keep_results = keep_results
        #: optional :class:`~repro.engine.shard.ShardRuntime` — every
        #: stream session dispatches cold plans to worker processes.
        self.executor = executor

    # ------------------------------------------------------------------
    def _plan_of(self, query) -> PlanNode:
        if isinstance(query, PlanNode):
            return query
        sql = getattr(query, "sql", None)
        if sql is None and isinstance(query, str):
            sql = query
        if sql is None:
            raise TypeError(f"cannot derive a plan from {query!r}")
        return self.db.plan(sql)

    @staticmethod
    def _label_of(query, stream: int, index: int) -> str:
        return getattr(query, "label", f"s{stream}q{index}")

    # ------------------------------------------------------------------
    def run(self, streams: Sequence[Sequence[object]]
            ) -> ConcurrentRunResult:
        slots = self.workers if self.workers is not None else \
            max(len(streams), 1)
        result = ConcurrentRunResult(workers=slots)
        semaphore = threading.BoundedSemaphore(slots)
        traces_lock = threading.Lock()
        errors: list[BaseException] = []
        t0 = time.perf_counter()

        def run_stream(stream_id: int) -> None:
            session = self.db.connect(executor=self.executor)
            try:
                for index, query in enumerate(streams[stream_id]):
                    plan = self._plan_of(query)
                    label = self._label_of(query, stream_id, index)
                    with semaphore:
                        t_start = time.perf_counter() - t0
                        query_result = session.execute(plan, label=label)
                        t_finish = time.perf_counter() - t0
                    trace = ThreadedQueryTrace(
                        stream=stream_id, index=index, label=label,
                        t_start=t_start, t_finish=t_finish,
                        record=query_result.record,
                        rows=query_result.table.num_rows,
                        result=query_result if self.keep_results
                        else None)
                    with traces_lock:
                        result.traces.append(trace)
            except BaseException as exc:  # surfaced after join
                with traces_lock:
                    errors.append(exc)
            finally:
                session.close()

        threads = [
            threading.Thread(target=run_stream, args=(stream_id,),
                             name=f"repro-stream-{stream_id}")
            for stream_id in range(len(streams))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall_seconds = time.perf_counter() - t0
        if errors:
            raise errors[0]
        result.traces.sort(key=lambda t: (t.stream, t.index))
        return result


def format_throughput_table(results: Sequence[ConcurrentRunResult],
                            title: str = "concurrent throughput") -> str:
    """Render a workers/throughput table (bench_concurrent output)."""
    lines = [title, "=" * len(title),
             f"{'workers':>8} {'queries':>8} {'wall_s':>9}"
             f" {'qps':>9} {'reused':>7} {'stall_s':>8}"]
    for res in results:
        lines.append(
            f"{res.workers:>8} {res.queries:>8}"
            f" {res.wall_seconds:>9.3f} {res.throughput_qps:>9.1f}"
            f" {res.num_reused():>7} {res.total_stall_seconds():>8.3f}")
    return "\n".join(lines)
