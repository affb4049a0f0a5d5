"""A gauge of the host's speed, so that timings can be compared across runs.

The benchmark's host shares 2 vCPUs with other tenants, and its speed
drifts by tens of percent within seconds: a fixed pure-Python loop timed
back to back for 40 s took from 0.10 to 0.19 s.  Every time the benchmark
reports is therefore scaled to a nominal host speed: the measured time is
multiplied by ``NOMINAL_S / r``, where ``r`` is the time the reference
kernel below took around the measurement.  The kernel does not touch
deckcensus, so a change to the program cannot move it; a slower program
still reads slower.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

# The kernel's time on a quiet moment of the host the baseline was taken
# on.  Only its constancy matters: it sets the scale of every timing.
NOMINAL_S = 1.0e-3
PERIOD_S = 0.25  # one sample (about 4 ms) per this long: under 2% of the time
WINDOW_S = 0.5  # samples this close to an operation judge its host speed


def _kernel() -> int:
    """Fixed integer, dict and sort work, like the program's inner loops."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        key = (i * 2654435761) & 0xFFFF
        counts[key] = counts.get(key, 0) + (key >> 3)
        acc ^= (key << 1) | (i & 7)
    return acc + len(sorted(counts.items()))


def reference_s() -> float:
    """How long the reference kernel takes now: the fastest of three runs,
    so that the caches the previous work left behind do not count."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times)


class Gauge:
    """Kernel times sampled every PERIOD_S by a timer signal, so that long
    operations are judged by the host speed during them, not only at
    their ends."""

    def __init__(self) -> None:
        self.begun: list[float] = []
        self.ended: list[float] = []
        self.took: list[float] = []

    def _sample(self, *_) -> None:
        begun = time.perf_counter()
        took = reference_s()
        self.begun.append(begun)
        self.ended.append(time.perf_counter())
        self.took.append(took)

    @contextmanager
    def running(self):
        """Sample at the start, every PERIOD_S within the block, and at the end."""
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def busy(self, start: float, end: float) -> float:
        """Seconds of ``start`` .. ``end`` spent taking samples.  A sample
        runs between two of the program's bytecodes, so it lies wholly
        inside or wholly outside an interval the caller timed."""
        first = bisect.bisect_left(self.begun, start)
        last = bisect.bisect_right(self.ended, end)
        return sum(self.ended[i] - self.begun[i] for i in range(first, last))

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median kernel time of the samples within
        WINDOW_S of ``start`` .. ``end``."""
        first = bisect.bisect_left(self.ended, start - WINDOW_S)
        last = bisect.bisect_right(self.begun, end + WINDOW_S)
        return NOMINAL_S / statistics.median(self.took[first:last])
