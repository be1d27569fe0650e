"""Layer spans recorded from outside the program.

The benchmark does not run a copy of the query pipeline.  While a
traced pass runs the real ``Database.sql`` / ``append_rows`` /
``maintain``, :func:`installed` swaps each layer's public entry point
for a wrapper that records one span per call — name, start, end, the
span that caused it, and the op it belongs to — and puts the original
back afterwards.  Whatever ``ExecutionService.execute`` does between
those entry points, now or after a later change, is therefore timed:
as the root span's self time (``exec_service.glue_us``) if nothing more
specific claims it.  Entry points that have gone missing are reported
loudly instead of silently timing nothing.

Spans stay in memory during the run; :func:`write_spans` dumps them as
JSON lines when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator

# span fields, by position (lists, not objects: recording a span must
# cost far less than the calls it times)
OP, NAME, START, END, PARENT = range(5)


class Tracer:
    """An in-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: index of the op the next spans belong to
        self.op = -1
        #: entry points :func:`installed` could not find
        self.missing: list[str] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [self.op, name, clock(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
        return traced


def _entry_points(db) -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every layer boundary a
    query, an append or a maintenance cycle crosses."""
    import repro.exec_service as exec_service
    import repro.recycler.recycler as recycler_module
    import repro.sql as sql
    import repro.sql.parser as parser
    recycler = db.recycler
    return [
        (db.catalog, "snapshot", "columnar.snapshot"),
        (parser, "tokenize", "sql.lex"),
        (sql, "parse", "sql.parse"),
        (sql, "bind", "sql.bind"),
        (exec_service, "validate_plan", "plan.validate"),
        (recycler.optimizer, "optimize", "plan.optimize"),
        (recycler, "prepare", "recycler.prepare"),
        (recycler_module, "match_tree", "recycler.match"),
        (exec_service, "execute_plan", "engine.execute"),
        (recycler, "finalize", "recycler.finalize"),
        (recycler, "abandon", "recycler.abandon"),
        (db.catalog, "append_rows", "columnar.append"),
        (recycler, "invalidate_table", "recycler.invalidate"),
        (db.maintenance, "run_once", "recycler.maintain"),
    ]


@contextlib.contextmanager
def installed(db, tracer: Tracer) -> Iterator[None]:
    """Record a span for every call into a layer while the block runs."""
    undo: list[tuple[object, str, bool, object]] = []
    try:
        for owner, attribute, name in _entry_points(db):
            original = getattr(owner, attribute, None)
            if original is None:
                tracer.missing.append(f"{name} ({attribute})")
                continue
            own = attribute in vars(owner)
            undo.append((owner, attribute, own, original))
            setattr(owner, attribute, tracer.wrap(name, original))
        if tracer.missing:
            print("bench: WARNING: no entry point to trace for "
                  + ", ".join(tracer.missing)
                  + "; their time is reported as exec_service.glue_us",
                  file=sys.stderr)
        yield
    finally:
        for owner, attribute, own, original in reversed(undo):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def self_times(spans: list[list], num_ops: int
               ) -> dict[str, list[float]]:
    """Per span name, each op's self time: the span's duration minus
    what its direct children cover, summed over the op's spans of that
    name."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, list[float]] = defaultdict(lambda: [0.0] * num_ops)
    for index, span in enumerate(spans):
        out[span[NAME]][span[OP]] += \
            span[END] - span[START] - child_time[index]
    return dict(out)


def root_durations(spans: list[list], num_ops: int) -> list[float]:
    """Each op's traced end-to-end time (its root span)."""
    out = [0.0] * num_ops
    for span in spans:
        if span[PARENT] < 0:
            out[span[OP]] += span[END] - span[START]
    return out


def write_spans(path: Path, passes: list[list[list]]) -> None:
    """One JSON object per span; ``parent`` is the ``id`` of the span
    that caused it within the same pass (-1 for an op's root span)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for pass_index, spans in enumerate(passes):
            for index, span in enumerate(spans):
                out.write(json.dumps({
                    "pass": pass_index, "id": index, "op": span[OP],
                    "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT]}))
                out.write("\n")
