"""Core-speed probe that rescales measured wall times to a reference speed.

On a shared host the speed of one core can swing by tens of percent
within seconds, and the swings of two cores are unrelated, so a probe on
another core or between runs cannot follow them.  A tiny cache-resident
numpy kernel run on the benchmark's own thread every 100 ms does: its
time tracks the speed the workload gets at that moment.  An operation's
wall time, minus the probes that interrupted it, is multiplied by
REF_PROBE_S over the mean probe time around the operation.  The result
is the operation's time on a core at the reference speed.
"""

import signal
import time
from typing import List, Sequence

import numpy as np

INTERVAL_S = 0.1  # probe period
WINDOW_S = 0.3  # probes this close to an operation set its speed
REF_PROBE_S = 0.35e-3  # probe time that defines the reference speed


class SpeedProbe:
    """Context manager: probes core speed on a timer while it is open."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._mat = rng.standard_normal((24, 24)) / 24.0
        self._vec = rng.standard_normal(512)
        self.samples: List[tuple] = []  # (start, duration) in perf_counter s
        self._kernel()  # warm up, so the first timed probe is not a cold one

    def _kernel(self) -> None:
        x = self._mat
        for _ in range(40):
            x = np.tanh(x @ self._mat)
            np.sort(self._vec)

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, starts: Sequence[float],
                durations: Sequence[float]) -> List[float]:
        """Each operation's time at the reference speed, probes excluded."""
        # list() copies in one C call, which no SIGALRM probe can interleave.
        s = np.array(list(self.samples), dtype=np.float64).reshape(-1, 2)
        if len(s) == 0:
            return list(durations)
        out = []
        for start, dur in zip(starts, durations):
            end = start + dur
            inside = (s[:, 0] >= start) & (s[:, 0] < end)
            near = (s[:, 0] >= start - WINDOW_S) & (s[:, 0] < end + WINDOW_S)
            probe_s = (s[near, 1].mean() if near.any()
                       else s[np.abs(s[:, 0] - start).argmin(), 1])
            out.append(float((dur - s[inside, 1].sum()) * REF_PROBE_S / probe_s))
        return out
