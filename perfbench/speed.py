"""Wall times rescaled by how fast the machine ran while they were taken.

On a shared machine the speed of the same Python loop drifts by half
from one minute to the next, and that drift swamps a 10% change in the
program.  While a ``Speedometer`` is open, a SIGALRM handler times a
fixed loop every ``INTERVAL_S`` of wall time.  ``seconds(t0, t1)`` then
divides the wall time by the median slowdown those samples saw between t0
and t1, which gives seconds at the speed the loop has at
``REFERENCE_S``.

``run.py`` samples while the work runs in its worker processes, pinned
to the same core: the drift differs from core to core, and samples taken
on the other core follow it too loosely to help.  Each sample preempts
the work for about 1% of the time, the same on every run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.01
LOOP = 2000
# Time of one calibration loop on a quiet 2-core Xeon at 2.1 GHz with
# CPython 3.11, where the figures in trajectory.json were taken.
REFERENCE_S = 1.0e-4
# Windows shorter than this borrow the samples around them.
MIN_WINDOW_S = 10 * INTERVAL_S


def _loop(n: int) -> int:
    k = 0
    for i in range(n):
        if i & 1:
            k += 1
        elif i & 2:
            k -= 1
    return k


class Speedometer:
    """Context manager that samples the calibration loop while open."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop(LOOP)
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median calibration time between t0 and t1 over the reference time."""
        pad = max(0.0, MIN_WINDOW_S - (t1 - t0)) / 2
        lo = bisect.bisect_left(self.starts, t0 - pad)
        hi = bisect.bisect_right(self.starts, t1 + pad)
        window = self.durations[lo:hi] or self.durations[-5:]
        if not window:
            raise RuntimeError("no speed samples were taken")
        # The median, not the mean: now and then the scheduler preempts a
        # sample mid-loop, and that sample then reads many times too slow.
        return statistics.median(window) / REFERENCE_S

    def seconds(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1, rescaled to the reference speed."""
        return (t1 - t0) / self.slowdown(t0, t1)
