"""A clock that reads in host-normalised seconds.

The benchmark shares a few cores of a host with other work, and the speed
of a fixed piece of Python code on it changes by ±20% from one second to
the next and drifts over minutes.  Wall times of the same analysis then
spread by more than any useful regression bound.  ``HostClock`` measures
the host's speed alongside the analyzer instead: an interval timer
interrupts the process every ``PERIOD_S`` seconds, and the signal handler
times a short fixed calibration kernel (pure Python and small numpy
operations, the two kinds of work the analyzer does).  The wall time
between two readings of the clock, kernels excluded, is scaled by
``REF_KERNEL_S`` over the median kernel time in that interval (over the
last ``WINDOW`` kernels, when the interval holds fewer), so that it reads
what it would on a host where the kernel takes ``REF_KERNEL_S``.

A change to the analyzer moves these figures as it moves wall time: the
kernel is the benchmark's own code and imports nothing of the analyzer.
The process stays single-threaded; the handler runs between bytecodes of
the main thread.  Spans recorded by ``spans.Tracer`` use wall time, so
they include the kernels that ran inside them (about 3% of the run).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque

import numpy as np

# Median time of one ``kernel()`` call on a 2-vCPU x86-64 host (Python
# 3.11, numpy 2.4): normalised seconds are seconds on that host.
REF_KERNEL_S = 0.0007
PERIOD_S = 0.025  # between calibration kernels
WINDOW = 9  # fewest kernels in one speed estimate

_DIM = 40
_BASE = np.add.outer(np.arange(_DIM, dtype=np.float64), np.arange(_DIM, dtype=np.float64)) % 7


def kernel() -> int:
    """Fixed work: dict, tuple and set traffic and a small min-plus closure."""
    d: dict = {}
    acc = 0
    for i in range(1200):
        k = (i * 7919) % 97
        d[k] = d.get(k, 0) + i
        acc += len((k, i, k ^ i))
    acc += len(frozenset(d) | {acc % 13})
    m = _BASE.copy()
    for k in range(_DIM):
        np.minimum(m, m[:, k:k + 1] + m[k:k + 1, :], out=m)
    return acc + int(m[0, -1])


def normalise(seconds: float) -> float:
    """``seconds`` of wall time just past, in normalised seconds, by the
    median of ``WINDOW`` kernels run now; for a process too short-lived for
    a ``HostClock``."""
    times = []
    for _ in range(2 * WINDOW):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return seconds * REF_KERNEL_S / statistics.median(times[WINDOW:])  # warm kernels only


class HostClock:
    """Callable clock: each call returns the normalised time elapsed since
    the clock started, kernels and paused spans excluded.  Use as a context
    manager, which starts and stops the interval timer."""

    def __init__(self):
        self.kernel_s: deque[float] = deque(maxlen=1 << 14)
        self.kernels = 0  # kernels run so far
        self.kernel_total = 0.0  # wall seconds spent in them
        self.normalised = 0.0  # what the clock reads
        self.wall = 0.0  # the same spans in wall seconds
        self._last = None  # (perf_counter, kernels, kernel_total) at the last reading
        self._old_handler = None

    def __enter__(self) -> "HostClock":
        for _ in range(WINDOW):  # a full window before the first reading
            self._calibrate()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def _on_alarm(self, signum, frame) -> None:
        self._calibrate()

    def _calibrate(self) -> None:
        collecting = gc.isenabled()
        gc.disable()  # the analyzer's garbage is not the kernel's work
        t = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t
        if collecting:
            gc.enable()
        self.kernel_s.append(dt)
        self.kernels += 1
        self.kernel_total += dt

    def __call__(self) -> float:
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = (time.perf_counter(), self.kernels, self.kernel_total)
            if self._last is not None:
                wall = now[0] - self._last[0] - (now[2] - self._last[2])
                self.wall += wall
                self.normalised += self.scale(wall)
            self._last = now
            return self.normalised
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)

    def pause(self) -> None:
        """Leave the time until the next reading out of both totals."""
        self._last = None

    def scale(self, seconds: float) -> float:
        """``seconds`` of wall time since the last reading, in normalised
        seconds."""
        since = self.kernels - self._last[1] if self._last is not None else 0
        n = min(max(since, WINDOW), len(self.kernel_s))
        recent = [self.kernel_s[-i] for i in range(1, n + 1)]
        return seconds * REF_KERNEL_S / statistics.median(recent)
