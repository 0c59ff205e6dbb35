"""Machine-speed reference for timings on a shared, unpinned host.

On the 2-vCPU host this benchmark was built on, the speed of Python code
switches between two levels about 1.8 times apart (load from other tenants),
staying in one for 0.1 to 1 s at a time, so a 100 ms operation can read
anything within that factor.  The change is common-mode: it slows the
package and a fixed stdlib computation alike.  So while a timed phase runs,
a SIGALRM sampler interrupts it every PERIOD_S and runs a short calibration
slice (fixed stdlib Fraction arithmetic that no change to the package can
touch), logging when it ran.  An interval is then converted to seconds at
the reference speed piece by piece: each stretch between two samples counts
as its length times REFERENCE_SLICE_S over the local slice time, and the
slices' own time is left out.  REFERENCE_SLICE_S is about the slice time
of the development host at its faster level.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

clock = time.perf_counter

SLICE_ITERATIONS = 24
REFERENCE_SLICE_S = 0.0006
PERIOD_S = 0.02


def calibration_slice() -> Fraction:
    """Fixed exact-rational work, the kind of arithmetic the package does.

    A Fraction slice tracks the package's speed under host load far better
    than an integer loop.
    """
    acc = Fraction(0)
    xs = [Fraction(i, 7) for i in range(1, 9)]
    for k in range(SLICE_ITERATIONS):
        row = [x * xs[(k + j) % 8] + acc for j, x in enumerate(xs)]
        acc = (row[k % 8] - row[(k + 3) % 8]) / (k + 1)
    return acc


class SpeedLog:
    """Calibration samples (start, end) in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._smooth: list[float] | None = None
        self._sampling = False
        self._busy = False   # a sample is running; the alarm must not nest

    # -- taking samples ------------------------------------------------------

    def sample(self) -> None:
        # a collection triggered by the slice's allocations would bill the
        # package's garbage to the slice, so none may start inside it
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            calibration_slice()
            t1 = clock()
            self.starts.append(t0)
            self.ends.append(t1)
            self._smooth = None
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def calibrate(self, count: int = 1) -> None:
        for _ in range(count):
            self.sample()

    def _on_alarm(self, signum, frame) -> None:
        if self._sampling and not self._busy:
            self.sample()

    def start_sampler(self) -> None:
        """Sample every PERIOD_S until stop_sampler (main thread only)."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._sampling = True
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop_sampler(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sampling = False
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    # -- reading them --------------------------------------------------------

    def _slice_times(self) -> list[float]:
        """Each sample's slice time, as the median of it and its two
        neighbours (one slice is short enough to catch an interrupt)."""
        if self._smooth is None:
            d = [b - a for a, b in zip(self.starts, self.ends)]
            self._smooth = [statistics.median(d[max(0, i - 1):i + 2])
                            for i in range(len(d))]
        return self._smooth

    def spent(self, start: float, end: float) -> float:
        """Seconds of calibration run between start and end."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed of the work done between start and
        end, calibration slices left out."""
        slices = self._slice_times()
        n = len(slices)
        if not n or end <= start:
            return 0.0
        total = 0.0
        # the stretch before the first sample and after the last count at
        # the speed of that sample
        if start < self.starts[0]:
            total += (min(end, self.starts[0]) - start) / slices[0]
        if end > self.ends[-1]:
            total += (end - max(start, self.ends[-1])) / slices[-1]
        # gaps (ends[i], starts[i + 1]) that overlap [start, end]
        i = max(0, bisect.bisect_right(self.ends, start) - 1)
        while i < n - 1 and self.ends[i] < end:
            lo = max(start, self.ends[i])
            hi = min(end, self.starts[i + 1])
            if hi > lo:
                total += (hi - lo) * 2 / (slices[i] + slices[i + 1])
            i += 1
        return total * REFERENCE_SLICE_S

    def work(self, start: float, end: float) -> float:
        """Seconds as measured between start and end, calibration left
        out."""
        return end - start - self.spent(start, end)

    def factor_between(self, start: float, end: float) -> float:
        """Reference seconds per measured second between start and end."""
        work = self.work(start, end)
        return self.scaled(start, end) / work if work > 0 else 1.0
