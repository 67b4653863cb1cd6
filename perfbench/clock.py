"""Timing in reference seconds, steady against drift in the host's speed.

The benchmark runs on a shared host whose CPU speed drifts by up to about
20% over spans of a few seconds, for the same pure-Python loop, in process
time as much as in wall time.  A whole run can land in a slow or a fast
phase, so plain wall times of identical code differ between runs by more
than a regression worth catching.

``SpeedClock`` tracks that speed while the body runs: a ``SIGALRM`` handler
runs a fixed reference computation (the benchmark's own normal-form oracle
on fixed words; no coxrank code) every ``PERIOD`` seconds in the measured
thread and records how long it took.  An interval is then reported as its
wall time, less the samples taken inside it, times ``REF_S`` divided by the
mean sample duration within ``WINDOW`` of the interval.  ``REF_S`` is the
sample's typical duration on a shared 2-vCPU x86-64 host with CPython 3.11,
so reference seconds read close to wall seconds there; on a slow phase both
the body and the samples slow down, and the quotient moves far less than
either (the correction is partial: the body can slow more than the sample).
"""

from __future__ import annotations

import random
import signal
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate

from . import oracle

PERIOD = 0.01  # seconds between samples; a sample costs about 3% of that
WINDOW = 2 * PERIOD  # samples this close to an interval give its speed
REF_S = 3.0e-4  # nominal duration of one reference sample, in seconds

_C5 = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]
_rng = random.Random(0)
_REF_WORDS = [[_rng.randrange(5) for _ in range(40)] for _ in range(8)]


def reference() -> None:
    """The fixed computation whose duration measures the host's speed."""
    for w in _REF_WORDS:
        oracle.normal_form(w, _C5)


class SpeedClock:
    """Samples the host's speed while active (``with clock:``) and converts
    intervals of ``time.perf_counter()`` taken then to reference seconds."""

    def __init__(self, period: float = PERIOD, window: float = WINDOW):
        self.period = period
        self.window = window
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._spent: list[float] = [0.0]
        self._busy = False
        self._old = None

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def __enter__(self) -> SpeedClock:
        self._old = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the interval ``[start, end]``, which must lie
        within an earlier ``with`` block."""
        if len(self._spent) != len(self.durations) + 1:
            self._spent = [0.0, *accumulate(self.durations)]
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        body = end - start - (self._spent[hi] - self._spent[lo])
        near_lo = bisect_left(self.starts, start - self.window)
        near_hi = bisect_right(self.starts, end + self.window)
        if near_hi <= near_lo:
            raise ValueError("no speed sample near the interval")
        speed = (self._spent[near_hi] - self._spent[near_lo]) / (near_hi - near_lo)
        return body * REF_S / speed
