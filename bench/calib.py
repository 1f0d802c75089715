"""Machine-speed reference for the end-to-end timings.

On a shared host the speed of a core drifts by up to 1.8x within minutes and
moves every timing of a run together.  A fixed pure-Python kernel, timed
throughout the run, follows much of that drift: over 19 twenty-second
windows it cut the interquartile spread of census timings from 0.22 to 0.09.
`run.py` multiplies a run's rates (and divides its times) by
median(kernel seconds) / KERNEL_REF_S, so they read as if the kernel had
taken KERNEL_REF_S; the record keeps the unscaled values.
"""

import time

KERNEL_REF_S = 0.020  # the kernel's typical time on the 2-core Xeon host used
INTERVAL_S = 1.0      # least time between two samples within a run


def _kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """One speed sample: the median of three kernel timings."""
    return sorted(_kernel() for _ in range(3))[1]


class SpeedSamples:
    """Kernel samples taken between operations, at most one per INTERVAL_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(kernel_seconds())
            self._last = time.perf_counter()
