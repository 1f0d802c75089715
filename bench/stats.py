"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # a tail percentile needs at least this many samples above it


def tail(samples, min_beyond: int = MIN_BEYOND):
    """(percentile, value, count) for the highest whole percentile P >= 50
    whose nearest-rank value still has at least `min_beyond` samples beyond
    it; None when even the median has fewer."""
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= min_beyond:
            return pct, xs[rank - 1], n
    return None
