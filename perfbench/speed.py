"""Machine speed, sampled while the program runs, to scale its timings.

A virtual machine with a few cores of a shared host drifts in speed: on a
2-vCPU VM the same fixed computation took up to 1.7 times as long from one
few-second episode to the next.  A yardstick -- a fixed piece of reference
work that never calls `qec` -- is timed at short intervals through each
run.  Each program timing is scaled by the yardstick's reference time over
its measured time around that interval, which gives the time the operation
would have taken at the reference speed.

`Timeline` keeps the probes (start, end, scale) on the thread's CPU clock,
which leaves out the time the host takes the CPU away (steal); the scaled
duration of an interval is the integral of the scale over the interval,
with probe time itself left out.  Between two probes the scale is the
median of the six nearest probes, three on each side, so that one
disturbed probe does not set it.  Raw timings are reported next to the
scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import thread_time

import numpy as np

import oracle


def _graph(seed: int, n: int) -> str:
    """A connected graph: a path plus random edges of density 1/2."""
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
    upper[np.arange(n - 1), np.arange(1, n)] = True
    return oracle.g6_encode(upper | upper.T)


_GRAPHS = tuple(_graph(seed, n) for seed, n in enumerate((7, 8) * 36))

# About the median yardstick time on a 2-vCPU x86_64 VM (Python 3.11,
# numpy 2.4).  It only has to stay fixed: scaled timings are in seconds of
# a machine on which the yardstick takes this long.
REFERENCE_S = 0.0146


def yardstick() -> float:
    """Reference work in the program's style: graph6 decoding, BFS
    distances and small symmetric eigenproblems.  Returns a checksum."""
    total = 0.0
    for g6 in _GRAPHS:
        adj = oracle.g6_decode(g6)
        dist = oracle.distances(adj)
        total += oracle.qec_value(dist)
        total += len(oracle.g6_encode(adj))
    return total


class Timeline:
    """Yardstick probes on the thread's CPU clock, and the scaled duration
    of intervals on that clock."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.scales: list[float] = []
        self._busy = False

    def probe(self, repeats: int = 1) -> None:
        """Time the yardstick `repeats` times; the probe's scale is the
        reference time over the median of those times."""
        if self._busy:  # a timer signal arrived during a probe
            return
        self._busy = True
        try:
            stamps = [thread_time()]
            for _ in range(repeats):
                yardstick()
                stamps.append(thread_time())
        finally:
            self._busy = False
        self.starts.append(stamps[0])
        self.ends.append(stamps[-1])
        self.scales.append(REFERENCE_S / statistics.median(np.diff(stamps)))

    @contextmanager
    def sampling(self, interval: float):
        """Probe every `interval` seconds of wall time from a timer signal,
        which runs between bytecodes of the main thread, inside the work.
        Probes bracket the whole block."""
        self.probe()
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.probe()

    def summary(self) -> dict:
        scales = sorted(self.scales)
        return {"probes": len(scales), "scale_min": scales[0],
                "scale_median": scales[len(scales) // 2], "scale_max": scales[-1]}

    def probe_time(self, t0: float, t1: float) -> float:
        """Time spent in probes inside [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.ends, t1)
        return sum(self.ends[k] - self.starts[k] for k in range(i, j))

    def _gap_scale(self, i: int) -> float:
        """Scale between probes i and i + 1."""
        return statistics.median(self.scales[max(0, i - 2):i + 4])

    def scale_at(self, t: float) -> float:
        """Scale of the gap between probes that holds time t."""
        return self._gap_scale(bisect.bisect_right(self.ends, t) - 1)

    def scaled(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] without probe time, at the reference speed.

        Needs a probe ending at or before t0 and one starting at or after t1.
        """
        i = bisect.bisect_right(self.ends, t0) - 1
        if i < 0 or self.starts[-1] < t1:
            raise ValueError("interval is not bracketed by probes")
        total = 0.0
        while True:
            gap_end = self.starts[i + 1]
            lo, hi = max(t0, self.ends[i]), min(t1, gap_end)
            if hi > lo:
                total += (hi - lo) * self._gap_scale(i)
            if gap_end >= t1:
                return total
            i += 1
