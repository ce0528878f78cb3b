"""Host speed reference: a fixed piece of pure-Python work timed between operations.

On a shared host the speed of a core drifts by tens of percent within
seconds, as other tenants start and stop, and every memsynth call slows with
it.  Two runs of the same code a minute apart can differ by more than a
regression bound.  So the benchmark times ``kernel`` after every operation
and scales each duration by ``REFERENCE_MS`` over the kernel's local time:
the median of the kernel samples taken inside the interval plus
``NEIGHBOURS`` on each side of it.  A scaled figure reads as milliseconds on
a host where the kernel takes ``REFERENCE_MS``.

The kernel does not touch memsynth, so a change to memsynth moves the scaled
figures by the same share as the raw ones.  The kernel is interpreter work
(arithmetic, dict stores, small-object allocation, JSON).  Over ten-minute
traces on the baseline host, its local speed tracked that of every memsynth
subcommand more closely than any one of those parts alone, a numpy kernel or
a file write: 30-second medians of scaled latencies spread by 1-7 % where
the raw ones spread by 15-40 %.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

#: kernel time the figures are scaled to: about its median on the baseline
#: host (2-vCPU x86-64, Python 3.11), where run medians ranged 0.7-1.5 ms
REFERENCE_MS = 1.0
#: kernel samples on each side of an interval that join its local speed
NEIGHBOURS = 2

_DOC = [{"n": n, "a": 0.5 * n, "b": -0.25 * n} for n in range(100)]


def kernel() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(1500):
        acc = acc * 0.5 + i
        table[i % 101] = acc
    rows = [{"n": i, "v": [i, i + 1.0]} for i in range(750)]
    json.loads(json.dumps(_DOC))
    return acc + len(rows)


class HostSpeed:
    """Kernel samples of one run, in time order."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoints, time.perf_counter() seconds
        self.ms: list[float] = []
        #: seconds spent in the kernel, to take out of set-up time
        self.spent_s = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.ms.append((end - start) * 1e3)
        self.spent_s += end - start

    def scale(self, start: float, end: float) -> float:
        """Factor from raw time in ``[start, end]`` to time at reference speed."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        near = self.ms[max(lo - NEIGHBOURS, 0):hi + NEIGHBOURS]
        return REFERENCE_MS / statistics.median(near)

    def median_ms(self) -> float:
        return statistics.median(self.ms)
