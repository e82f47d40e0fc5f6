"""Host speed sampling, so that times taken on a host whose speed drifts compare.

On a shared host the CPU speed one process gets can halve for seconds at
a time (a busy sibling hyperthread or neighbour) and recover again: the
same rank-8 chain took between 0.49 s and 0.97 s within one minute on a
2-vCPU virtual machine.  Raw wall-clock times then spread far beyond any
useful regression bound.

While a :class:`SpeedSampler` is open, a SIGALRM every ``interval``
seconds runs :func:`kernel`, a fixed pure-Python loop shaped like the
engine's hot path (a small function computing the closed-form product
of two masks, and a set lookup), and records how long it took.
:meth:`SpeedSampler.reference_seconds` turns a measured interval into
seconds at reference speed: the interval minus the kernel runs inside
it, scaled by ``KERNEL_REFERENCE_S`` over the mean kernel time around
it.  The reference is the kernel's time on that 2-vCPU machine in its
fast phase, so reference seconds read as wall seconds on a quiet host.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

KERNEL_REFERENCE_S = 1.6e-3
_INSIDE = frozenset(range(1, 1 << 12, 3))


def _product(x: int, y: int) -> int:
    a, b = x.bit_length(), y.bit_length()
    if a == b:
        return 0
    if a < b:
        x, y, b = y, x, a
    if (x >> (b - 1)) & 1:
        return 0
    return (1 << (b - 1)) | (x & y) | (x & ~((1 << b) - 1))


def kernel() -> int:
    """About 9,000 mask products and set lookups; the count is fixed."""
    hits = 0
    for x in range(1, 1 << 12, 19):
        for y in range(1, 1 << 12, 97):
            if _product(x, y) in _INSIDE:
                hits += 1
    return hits


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the kernel's time from a timer signal while open (main thread only)."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds the interval would take at reference speed, kernel runs excluded."""
        inside = slice(bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end))
        busy = (end - start) - sum(self.durations[inside])
        margin = 1.5 * self.interval
        near = self.durations[bisect.bisect_left(self.starts, start - margin):
                              bisect.bisect_left(self.starts, end + margin)]
        if not near:  # the interval ended before the first tick
            near = [time_kernel()]
        return busy * KERNEL_REFERENCE_S / statistics.fmean(near)
