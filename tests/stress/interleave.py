"""Deterministic interleaving driver for the stress suite.

Real-thread schedulers admit queries in whatever order the OS wakes
threads, which makes failures impossible to replay.  This driver pins
the *admission order* instead: a seeded RNG draws a permutation of the
workload that respects per-session order (a session is sequential, like
a DB-API connection), and a turnstile makes every run with the same
seed start queries in exactly that order.  Execution still overlaps for
real — the turnstile only serializes query *starts*, and an optional
slot semaphore caps simultaneous executions like the paper's query
slots — so the recycler's striped locks, in-flight blocking, and cache
admissions are exercised by genuine concurrency while the schedule
stays replayable.  Results must be byte-identical to a serial run for
*every* seed; the suite replays several.

DDL-chaos mode: a unit may be a **callable** ``unit(db, session) ->
rows`` instead of SQL — the DDL-chaos suite uses this for
``register_table``/``append_rows``/``drop_table`` operations and their
follow-up probes.  Per-stream order is preserved by every admission
permutation and a session is sequential, so a DDL unit and the queries
that depend on it stay ordered by putting them on one stream, while
every other stream races the DDL for real.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.db import Database


def seeded_admission_order(streams: Sequence[Sequence[object]],
                           seed: int) -> list[tuple[int, int]]:
    """A seeded topological shuffle of ``(stream, index)`` units: global
    order is pseudo-random, per-stream order is preserved."""
    rng = random.Random(seed)
    remaining = [len(stream) for stream in streams]
    cursors = [0] * len(streams)
    order: list[tuple[int, int]] = []
    active = [i for i, n in enumerate(remaining) if n]
    while active:
        stream_id = rng.choice(active)
        order.append((stream_id, cursors[stream_id]))
        cursors[stream_id] += 1
        remaining[stream_id] -= 1
        if not remaining[stream_id]:
            active.remove(stream_id)
    return order


@dataclass
class StressRunResult:
    """Per-query rows plus bookkeeping, keyed by ``(stream, index)``."""

    rows: dict[tuple[int, int], list] = field(default_factory=dict)
    admission_order: list[tuple[int, int]] = field(default_factory=list)
    stall_seconds: float = 0.0
    num_reused: int = 0
    num_materialized: int = 0


class DeterministicInterleaver:
    """Run one session per stream with a seeded admission turnstile."""

    def __init__(self, db: Database, seed: int,
                 slots: int | None = None, executor=None) -> None:
        self.db = db
        self.seed = seed
        self.slots = slots
        #: optional ShardRuntime — every stream session dispatches cold
        #: plans to worker processes (process-mode stress replay)
        self.executor = executor

    def run(self, streams: Sequence[Sequence[object]]) -> StressRunResult:
        order = seeded_admission_order(streams, self.seed)
        rank_of = {unit: rank for rank, unit in enumerate(order)}
        result = StressRunResult(admission_order=order)
        turnstile = threading.Condition()
        admitted = [0]  # next rank allowed to start
        slots = threading.BoundedSemaphore(self.slots) \
            if self.slots is not None else None
        result_lock = threading.Lock()
        errors: list[BaseException] = []

        def run_stream(stream_id: int) -> None:
            session = self.db.connect(executor=self.executor)
            try:
                for index, query in enumerate(streams[stream_id]):
                    rank = rank_of[(stream_id, index)]
                    with turnstile:
                        turnstile.wait_for(
                            lambda: admitted[0] >= rank, timeout=120)
                        assert admitted[0] == rank, \
                            f"turnstile out of order at rank {rank}"
                        admitted[0] += 1
                        turnstile.notify_all()
                    unit = getattr(query, "sql", query)
                    if callable(unit):
                        rows = unit(self.db, session)
                        with result_lock:
                            result.rows[(stream_id, index)] = rows
                        continue
                    if slots is not None:
                        with slots:
                            query_result = session.sql(unit)
                    else:
                        query_result = session.sql(unit)
                    record = query_result.record
                    with result_lock:
                        result.rows[(stream_id, index)] = \
                            query_result.table.to_rows()
                        result.stall_seconds += record.stall_seconds
                        result.num_reused += record.num_reused
                        result.num_materialized += record.num_materialized
            except BaseException as exc:  # surfaced after join
                with result_lock:
                    errors.append(exc)
                with turnstile:
                    # unblock the turnstile so the run fails fast
                    # instead of timing out rank by rank
                    admitted[0] = len(order)
                    turnstile.notify_all()
            finally:
                session.close()

        threads = [
            threading.Thread(target=run_stream, args=(stream_id,),
                             name=f"stress-stream-{stream_id}")
            for stream_id in range(len(streams))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return result


def serial_reference(db: Database, streams: Sequence[Sequence[object]]
                     ) -> dict[tuple[int, int], list]:
    """Every query's exact rows from a single serial session.

    Streams are drained in order — for DDL-chaos workloads this serial
    schedule applies the same per-stream DDL interleaving the concurrent
    run does (DDL and its dependent queries share a stream)."""
    reference: dict[tuple[int, int], list] = {}
    with db.connect() as session:
        for stream_id, stream in enumerate(streams):
            for index, query in enumerate(stream):
                unit = getattr(query, "sql", query)
                if callable(unit):
                    reference[(stream_id, index)] = unit(db, session)
                else:
                    reference[(stream_id, index)] = \
                        session.sql(unit).table.to_rows()
    return reference
