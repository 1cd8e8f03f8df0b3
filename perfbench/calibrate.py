"""Host-speed calibration: a fixed pure-Python kernel timed between operations.

The benchmark runs on hosts whose cores are shared with other tenants.  On
the reference machine (see README.md) the same interpreted code runs at
speeds up to 1.7x apart, in phases that last from seconds to minutes, so raw
times of two runs of identical work can differ by more than any useful bound.

``Speed`` times ``kernel`` (Fraction sums, tuple permutations and dict
counting; no ``abelpell`` code) right before every operation and once more
when the run ends; after a long operation, for a share of its time.  The host's speed flips between a fast and a slow state
within milliseconds as well as over minutes, so the samples that judge an
operation are the ones nearest to it: those taken from d before it starts to
d after it ends, where d is its own duration capped at ``WINDOW_S`` (for a
short operation, just the samples right before and right after it).  With k
the mean time of a kernel run in them, the operation's time is scaled by
``(REFERENCE_S / k) ** sensitivity``: the time it would have taken on a host
that runs the kernel in ``REFERENCE_S``.  A workload's sensitivity is the
slope of log operation time against log kernel time, fitted per operation
over three runs of the same seed on the reference machine
(``SENSITIVITY`` in ``run.py``): a slowdown that stretches the kernel by a
factor s stretches the workload's operations by about s ** sensitivity.  At
the reference speed the factor is 1, and a change to the package does not
change the kernel, so it shows in the scaled times in full.
"""
from __future__ import annotations

import bisect
import gc
import math
import time
from fractions import Fraction

#: Kernel time on the reference machine in its fast state, seconds.
REFERENCE_S = 0.0003
#: Longest reach of the samples that judge one operation, seconds.
WINDOW_S = 2.0
#: Fewest kernel runs in a sample.
RUNS_PER_SAMPLE = 2
#: A sample taken after an operation runs the kernel for about this share of
#: the operation's time, so that a long operation, which saw many flips of
#: the host's speed, is judged by many runs.
SAMPLE_SHARE = 0.02


def kernel() -> int:
    """A third of a millisecond of interpreter work of the kinds the workloads do."""
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    perm = (3, 0, 6, 1, 7, 2, 4, 5)
    seen: dict[tuple[int, ...], int] = {}
    current = tuple(range(8))
    for _ in range(200):
        current = tuple(current[j] for j in perm)
        seen[current] = seen.get(current, 0) + 1
    return total.denominator % 7 + len(seen)


def kernel_time(runs: int) -> float:
    """Total time of ``runs`` kernel runs, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(runs):
            kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Kernel samples taken during a run, and the scale factors they give."""

    def __init__(self, sensitivity: float):
        self.sensitivity = sensitivity
        self.times: list[float] = []  # when each sample ended
        self.kernel_s: list[float] = []  # running totals of kernel time ...
        self.runs: list[int] = []  # ... and of kernel runs, one entry per sample

    def sample(self, after_s: float = 0.0) -> None:
        """Take a sample; ``after_s`` is the duration of the operation just done."""
        runs = max(RUNS_PER_SAMPLE, math.ceil(SAMPLE_SHARE * after_s / REFERENCE_S))
        elapsed = kernel_time(runs)
        self.times.append(time.perf_counter())
        self.kernel_s.append((self.kernel_s[-1] if self.kernel_s else 0.0) + elapsed)
        self.runs.append((self.runs[-1] if self.runs else 0) + runs)

    def mean_kernel_s(self) -> float:
        """Mean time of one kernel run over the whole run."""
        return self.kernel_s[-1] / self.runs[-1]

    def scale(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end`` at the reference speed.  Call it
        after the run's closing ``sample``."""
        reach = min(end - start, WINDOW_S)
        lo = bisect.bisect_left(self.times, start - reach)
        hi = bisect.bisect_right(self.times, end + reach)
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        lo, hi = min(lo, before), max(hi, min(before + 2, len(self.times)))
        kernel_s = self.kernel_s[hi - 1] - (self.kernel_s[lo - 1] if lo else 0.0)
        runs = self.runs[hi - 1] - (self.runs[lo - 1] if lo else 0)
        return (end - start) * (REFERENCE_S * runs / kernel_s) ** self.sensitivity
