"""Timing in reference seconds on a host whose speed drifts.

The host this benchmark was tuned on (a 2-vCPU VM) changes speed by up
to 1.6x, in phases from tens of milliseconds to minutes, in CPU time as
well as wall time, so runs of the same code disagreed by 15-35%.  `SpeedClock`
samples a fixed calibration kernel every `every_s` seconds, from a
SIGALRM interval timer, so the samples also land inside long jobs.  A
time interval is then converted to reference seconds:

    reference seconds = sum over the interval of dt * ref_s / c(t)

where c(t) is the kernel time of the nearest sample (each sample is
the median of three neighbours).  One reference second is the time on
a machine where the kernel takes `ref_s`.  The kernel is benchmark code
that never changes between the commits compared, so a slower program
still reads slower.  Time spent calibrating is excluded from the job
clock `now()`.  No thread or process is started.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np


class SpeedClock:
    def __init__(self, ref_s: float, every_s: float | None):
        self.ref_s = ref_s
        self.every_s = every_s
        self.paused = 0.0  # seconds spent calibrating
        self.times: list[float] = []  # job-clock time of each sample
        self.costs: list[float] = []  # kernel seconds of each sample
        self._matrix = (np.arange(256).reshape(16, 16) / 256.0).astype(complex)
        self._midpoints = None
        self._speeds = None

    def now(self) -> float:
        """Job clock: wall time minus the time spent calibrating."""
        return time.perf_counter() - self.paused

    def _kernel(self) -> int:
        """Fixed interpreter-bound work, small complex matmuls and one
        fresh 1 MB array (page faults included): the blend of the
        package's hot paths."""
        x = 0
        table = {}
        for k in range(2000):
            x += (k * k) ^ (k >> 3)
            table[k & 255] = x & 1023
        for _ in range(30):
            b = self._matrix @ self._matrix.conj().T
            x += int(b[0, 0].real > 0)
        x += int(np.ones(65536, dtype=complex).sum().real)
        return x

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        costs = []
        for _ in range(3):
            k0 = time.perf_counter()
            self._kernel()
            costs.append(time.perf_counter() - k0)
        self.times.append(t0 - self.paused)
        self.costs.append(statistics.median(costs))
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        """Take a first sample and, when `every_s` is set, start the
        interval timer; with `every_s=None` the caller samples."""
        self.sample()
        if self.every_s:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        c = self.costs
        smooth = [statistics.median(c[max(0, i - 1): i + 2]) for i in range(len(c))]
        self._speeds = [self.ref_s / x for x in smooth]
        self._midpoints = [(a + b) / 2 for a, b in zip(self.times, self.times[1:])]
        return False

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds of the job-clock interval [t0, t1]."""
        mids, speeds = self._midpoints, self._speeds
        i = bisect.bisect_right(mids, t0)
        total, start = 0.0, t0
        while True:
            end = mids[i] if i < len(mids) else float("inf")
            if end >= t1:
                return total + (t1 - start) * speeds[i]
            total += (end - start) * speeds[i]
            start, i = end, i + 1
