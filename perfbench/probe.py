"""Machine-speed probe for measuring on a shared, noisy CPU.

On a shared virtual machine (2 vCPUs of an Intel Xeon at 2.0 GHz, other
tenants on the host) the same code runs up to 20% faster or slower from one
second, or one minute, to the next, with nothing changing inside the
machine; a fixed pure-Python loop times the same swings.  Timings are
therefore kept in two forms: raw seconds, and reference seconds, which
rescale each stretch of time by how slowly a fixed kernel ran in it:

    reference_s = measured_s * REFERENCE_KERNEL_S / kernel_s

``SpeedProbe`` times the kernel from a SIGALRM handler every ``PERIOD_S``
while operations run.  It takes the handler's time out of the operations'
time, and scales the operation time of each interval by the median of the
last ``TRAILING`` kernel times at the interval's end, which follows the
machine's swings within a second or two but not a single stray sample.

The kernel is a run of small numpy calls, whose cost is mostly the
Python-to-C dispatch that cdsplit's per-point work is made of; on that
machine it tracked cdsplit's speed better than plain Python arithmetic or
memory-bound kernels did.  It does not touch cdsplit, so a change to the
program moves the measured time and not the kernel.
"""

from __future__ import annotations

import collections
import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
TRAILING = 9
# A typical kernel time on the machine above; it only scales the result.
REFERENCE_KERNEL_S = 0.0003


_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])


def kernel() -> float:
    acc = 0.0
    for _ in range(25):
        acc += float(np.linalg.solve(_A, _A @ _A)[0, 0])
    return acc


def kernel_median(runs: int) -> float:
    """Median time of ``runs`` back-to-back kernel calls."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Context manager that samples the kernel while it is active.

    Operation time is bracketed by ``start()`` and ``stop()``; ``take()``
    returns the raw seconds, the reference seconds and the kernel sample
    count accumulated since the previous ``take()``."""

    def __init__(self):
        self._previous = None
        self._since = None      # start of the open operation stretch
        self._mark = 0.0        # operation time folded before that start
        self._pending_s = 0.0   # operation time since the last sample
        self._recent = collections.deque(maxlen=TRAILING)
        self._scale = None      # REFERENCE_KERNEL_S / median of _recent
        self._raw_s = self._ref_s = 0.0
        self._samples = 0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        if self._since is not None:
            self._pending_s += t0 - self._since
        kernel()
        self._recent.append(time.perf_counter() - t0)
        self._scale = REFERENCE_KERNEL_S / statistics.median(self._recent)
        self._samples += 1
        self._fold(self._scale)
        if self._since is not None:
            self._since = time.perf_counter()

    def _fold(self, scale):
        self._raw_s += self._pending_s
        self._ref_s += self._pending_s * scale
        self._pending_s = 0.0

    @contextlib.contextmanager
    def _masked(self):
        """Hold SIGALRM back so the handler never runs mid-update."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        with self._masked():
            self._mark = self._raw_s + self._pending_s
            self._since = time.perf_counter()

    def stop(self) -> float:
        """Ends the operation stretch; returns its seconds, handler excluded."""
        with self._masked():
            self._pending_s += time.perf_counter() - self._since
            self._since = None
            return self._raw_s + self._pending_s - self._mark

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def take(self) -> tuple[float, float, int]:
        with self._masked():
            if self._pending_s:
                self._fold(self._scale if self._scale is not None
                           else REFERENCE_KERNEL_S / kernel_median(21))
            out = (self._raw_s, self._ref_s, self._samples)
            self._raw_s = self._ref_s = 0.0
            self._samples = 0
        return out
