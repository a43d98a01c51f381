"""Host-speed sampling for timings on a shared host (README, "Host speed").

Inside ``with HostSpeed() as host:`` a SIGALRM every ``PERIOD_S`` seconds of
wall time runs a fixed kernel of interpreter and numpy work in the signal
handler, in this process between two bytecodes of whatever runs, and
records the kernel's duration. ``clock()`` is ``perf_counter`` minus the
time spent in the handler, so it times the sampled work alone;
``slowdown()`` is the kernel's mean time in the block over its reference
time. A time divided by the slowdown of the block it was taken in is that
time at reference host speed.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np


class HostSpeed:
    PERIOD_S = 0.05
    REF_S = 0.001  # the kernel's time at the fast end on a 2-vCPU Intel Xeon VM

    def __init__(self):
        self._array = np.linspace(0.0, 1.0, 100_000)
        # sorted in place: the kernel allocates nothing large, so it leaves
        # the allocator's thresholds, and the program's peak RSS, alone
        self._buffer = np.empty(20_000)
        self.samples: list[float] = []
        self.spent = 0.0

    def kernel(self) -> float:
        t0 = perf_counter()
        # ints, floats, strs and a dict of ints only: nothing the cyclic
        # garbage collector tracks, so sampling does not move its schedule
        acc, table, chars = 0.0, {}, 0
        for i in range(3_000):
            acc += (i & 7) * 0.5
            table[i % 97] = table.get(i % 97, 0) + i
        for i in range(300):
            chars += len(repr(i * 0.1))
        np.copyto(self._buffer, self._array[::-5])
        self._buffer.sort()
        elapsed = perf_counter() - t0
        if not math.isfinite(acc + self._buffer[0]) or chars < 300:
            raise RuntimeError("host-speed kernel produced a bad result")
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(self.kernel())
        self.spent += perf_counter() - t0

    def clock(self) -> float:
        return perf_counter() - self.spent

    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / self.REF_S

    def __enter__(self) -> "HostSpeed":
        self.samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a block shorter than one period
            self.samples.append(self.kernel())
