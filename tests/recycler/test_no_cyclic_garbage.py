"""The recycling path leaves nothing for the cyclic garbage collector.

A recursive closure — a nested function that calls itself by name — is
a reference cycle: function, cell and everything the closure reads stay
alive until a cyclic collection finds them.  The recycler's structure
walks (direct materialized descendants, the materialized frontier and
ancestor frontier, the reference bookkeeping after matching, which
held the whole ``MatchResult``) were such closures, and left tens of
thousands of objects per benchmark pass for the collector, whose
pauses the pass then paid.  They are loops now.

A TPC-H stream and the time-series dashboard (appends included) replay
under ``spec`` and ``pa`` with the collector off and
``gc.DEBUG_SAVEALL`` on, so a final collection keeps every unreachable
object in ``gc.garbage``; none of them may have been allocated by
``repro`` code — an instance of a ``repro`` class, or an object whose
innermost allocating frame (``tracemalloc``) is in the package.
"""

from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

import pytest

import repro
from twin_replay import dashboard_stream, replay, tpch_stream

PACKAGE = str(Path(repro.__file__).resolve().parent)


def allocated_by_repro(obj: object) -> bool:
    # an instance of a repro class, or a repro function or class
    module = getattr(obj, "__module__", None)
    if isinstance(module, str) and module.split(".")[0] == "repro":
        return True
    traceback = tracemalloc.get_object_traceback(obj)
    return traceback is not None and \
        traceback[0].filename.startswith(PACKAGE)


def repro_garbage(run) -> list[str]:
    """What ``run()`` left for the cyclic collector that ``repro``
    allocated, described (type, and where it was allocated)."""
    gc.collect()
    tracemalloc.start()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return [f"{type(obj).__qualname__}"
                f" {tracemalloc.get_object_traceback(obj)}"
                for obj in gc.garbage if allocated_by_repro(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["spec", "pa"])
@pytest.mark.parametrize("stream", [tpch_stream, dashboard_stream],
                         ids=["tpch", "dashboard"])
def test_recycling_leaves_no_cyclic_garbage(stream, mode):
    build, ops = stream(mode)
    db = build()
    try:
        left = repro_garbage(lambda: replay(db, ops))
        # premise: the pass recycled
        counters = db.recycler.cache.counters
        assert counters.admitted > 0 and counters.reuses > 0
    finally:
        db.close()
    assert left == [], f"{len(left)} objects, first: {left[:5]}"
