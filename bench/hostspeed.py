"""Measuring how fast the host is while the benchmark runs.

On a shared box the same code runs at very different speeds from one
second to the next — the same pass took 7 s or 13 s within one minute
when this was written, and per-op minima over twelve passes still
differed by 18 % between runs (``NOISE.md``).  No estimator recovers a
time the host never showed, so the benchmark measures the host beside
the program: every 10 ms of a pass it times a small fixed *kernel* —
standard-library and numpy work that no change to the repository can
touch — and divides each op's latency by how much slower than
:data:`REFERENCE_SECONDS` the kernel ran around that op.  Reported
times are therefore *milliseconds at reference host speed*: on a quiet
reference box they equal wall-clock time, on a busy one they stay put.
"""

from __future__ import annotations

import bisect
import ctypes
import json
import re
import statistics
import struct
import textwrap
import time

import numpy as np

#: what the kernel takes on the box this benchmark was defined on when
#: nothing else competes for it.  A constant, not an estimate: changing
#: it rescales every timing metric.
REFERENCE_SECONDS = 300e-6

#: at most this much of a pass goes by without a sample
SAMPLE_GAP_SECONDS = 0.010

def steady_allocator() -> bool:
    """Stop glibc from handing freed memory back to the kernel.

    By default glibc serves an allocation above a *dynamic* threshold
    with ``mmap`` and trims the heap top once enough of it is free, so a
    loop that allocates and frees 480 KB numpy temporaries (a cone search
    over ``photoobj`` makes eight) either reuses warm heap memory or
    faults every page in again — and which of the two depends on what
    happens to sit at the top of the heap in that process.  The same
    ``sky_warm`` off-pass took 2.1 s with 9.5 k page faults or 2.7-3.4 s
    with 1.97 M, process by process (``NOISE.md``).  Fixing both
    thresholds high pins every process to the first mode.  Returns
    False where the C library has no ``mallopt``."""
    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    # 32 MiB is the largest mmap threshold glibc accepts
    return bool(mallopt(m_mmap_threshold, 32 * 1024 * 1024)
                and mallopt(m_trim_threshold, 512 * 1024 * 1024))


_DOCUMENT = {f"k{i}": [i, str(i), {"a": i * 1.5, "b": [i, i + 1, i + 2]}]
             for i in range(60)}
_TEXT = json.dumps(_DOCUMENT)
_ARRAY = np.arange(32768, dtype=np.float64)
_ASSIGNMENT = re.compile(r"(\w+)\s*=\s*(\d+)")
_LINE = "alpha = 12, beta = 345, gamma = 6789, delta = 1 " * 4


def kernel() -> float:
    """Seconds the fixed kernel took, once: object-heavy interpreter
    work (parse, build, hash, sort, match, format) spread over several
    standard-library modules, and one pass over a 256 KiB array — what
    the program's own time is made of.  Memory-streaming and
    pointer-chasing kernels were tried and tracked the workloads worse
    (``NOISE.md``)."""
    started = time.perf_counter()
    json.loads(_TEXT)
    json.dumps(_DOCUMENT)
    table = {}
    for i in range(200):
        table[(i, str(i))] = [i]
    sorted(table, key=lambda key: key[1])
    (_ARRAY * 1.0001).sum()
    _ASSIGNMENT.findall(_LINE)
    textwrap.wrap(_LINE, 30)
    struct.pack("<10q", *range(10))
    "%s|%d|%.3f" % ("x", 5, 1.5)
    sorted(_LINE.split())
    {word: len(word) for word in _LINE.split()}
    json.loads(_TEXT)
    return time.perf_counter() - started


class SpeedMeter:
    """Kernel timings along one pass, and the slowdown around an op."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._values: list[float] = []
        self._last = float("-inf")
        #: seconds this meter's own samples have taken so far
        self.spent = 0.0

    def sample(self) -> None:
        timings = (kernel(), kernel(), kernel())
        self.spent += sum(timings)
        value = statistics.median(timings)
        self._last = time.perf_counter()
        self._times.append(self._last)
        self._values.append(value)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last > SAMPLE_GAP_SECONDS:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference the host ran
        between ``start`` and ``end``: the mean of the samples from the
        last one before ``start`` to the first one after ``end``."""
        first = max(bisect.bisect_right(self._times, start) - 1, 0)
        last = min(bisect.bisect_left(self._times, end),
                   len(self._times) - 1)
        values = self._values[first:last + 1]
        return statistics.fmean(values) / REFERENCE_SECONDS

    def normalised(self, start: float, end: float) -> float:
        """``end - start`` seconds at reference host speed."""
        return (end - start) / self.slowdown(start, end)

    def median_slowdown(self) -> float:
        return statistics.median(self._values) / REFERENCE_SECONDS
