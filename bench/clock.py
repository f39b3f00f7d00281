"""Timings scaled to a reference machine speed.

The shared machines this benchmark runs on change speed by up to about
1.8x, in stretches of seconds to minutes.  A timing taken in a slow
stretch reads slower although the program did the same work.  So every
timed sample is bracketed by calibrations: a few runs of
``calibration_kernel``, fixed pure-Python work that never touches the
library.  ``Clock.reference_seconds`` scales each stretch of a raw
``perf_counter`` interval by how much slower than
``REFERENCE_CALIBRATION_S`` the calibrations around it ran, and leaves
out the calibrations themselves.  The result reads as the interval's
length on a machine where the kernel takes ``REFERENCE_CALIBRATION_S``.
"""

import gc
from bisect import bisect_right
from time import perf_counter

REFERENCE_CALIBRATION_S = 0.0005
CALIBRATION_REPS = 3
# Between calibrations inside a pass; about 3% of the pass goes to them.
MIN_GAP_S = 0.05

_PERM = tuple((7 * i + 3) % 1009 for i in range(1009))


def calibration_kernel() -> int:
    """Compose a permutation with itself: list indexing and allocation."""
    q = list(range(len(_PERM)))
    for _ in range(15):
        q = [_PERM[i] for i in q]
    return q[0]


class Clock:
    """Calibrations taken during a run, and raw intervals scaled by them."""

    def __init__(self):
        self.windows: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)
        self._starts: list[float] = []

    def calibrate(self) -> None:
        """Time the kernel ``CALIBRATION_REPS`` times and keep the fastest.

        The collector is off meanwhile, so the library's heap cannot slow
        the kernel down.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            best = float("inf")
            for _ in range(CALIBRATION_REPS):
                t = perf_counter()
                calibration_kernel()
                best = min(best, perf_counter() - t)
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.windows.append((start, end, best))
        self._starts.append(start)

    def checkpoint(self) -> None:
        """Calibrate when ``MIN_GAP_S`` have passed since the last calibration."""
        if not self.windows or perf_counter() - self.windows[-1][1] >= MIN_GAP_S:
            self.calibrate()

    def kernel_seconds(self) -> list[float]:
        return [w[2] for w in self.windows]

    def reference_seconds(self, a: float, b: float) -> float:
        """The raw interval ``[a, b]`` at the reference speed.

        Between two calibrations the speed is taken from the mean of their
        kernel times; before the first and after the last, from the
        nearest one.  Time spent calibrating counts as none.  Without any
        calibration the raw length is returned.
        """
        w = self.windows
        if not w:
            return b - a
        total = 0.0
        j = bisect_right(self._starts, a)
        while j <= len(w):
            lo = w[j - 1][1] if j > 0 else float("-inf")
            if lo >= b:
                break
            hi = w[j][0] if j < len(w) else float("inf")
            kernel = (w[max(j - 1, 0)][2] + w[min(j, len(w) - 1)][2]) / 2
            total += max(0.0, min(hi, b) - max(lo, a)) * REFERENCE_CALIBRATION_S / kernel
            j += 1
        return total
