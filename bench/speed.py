"""The host's current CPU speed, from a fixed pure-Python kernel.

The shared hosts this benchmark runs on change speed by up to 1.5x within a
few minutes (bench/NOTES.md, "Stability and reference seconds").  A run
therefore times this kernel between its tasks, and reports its times in
reference seconds: measured seconds times REFERENCE_S over the kernel's median
time in the same run.  The kernel is fixed here and never calls the program,
so a change to the program moves reference seconds in the same proportion as
measured ones.
"""
from __future__ import annotations

import statistics
import time

# The kernel's median time on the 2-core development VM; one reference second
# is one second of a run in which the kernel takes this long.
REFERENCE_S = 0.020
PROBE_EVERY_S = 0.25  # seconds of a run per kernel run: the kernel takes ~8%


def kernel():
    """Small-integer arithmetic in an interpreted loop; about 20 ms.

    Of the kernels tried (this one, big-int bitsets, a set-and-bitset mix),
    this one tracked the program's times best (bench/NOTES.md).
    """
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return acc


def probe():
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedLog:
    """Kernel times of one run: one kernel run per PROBE_EVERY_S seconds."""

    def __init__(self):
        self.times = []
        self.last = None  # when the kernel runs caught up last

    def probe_now(self):
        self.times.append(probe())
        self.last = time.perf_counter()

    def catch_up(self):
        """Run the kernel once for each PROBE_EVERY_S seconds since the last catch-up.

        Between tasks only, so the kernel never runs inside a timed task;
        after a long task it runs several times in a row.
        """
        if self.last is None:
            self.probe_now()
            return
        due = int((time.perf_counter() - self.last) / PROBE_EVERY_S)
        for _ in range(due):
            self.times.append(probe())
        self.last += due * PROBE_EVERY_S

    def scale(self):
        """Reference seconds per measured second in this run."""
        return REFERENCE_S / statistics.median(self.times)
