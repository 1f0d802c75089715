"""The tail-percentile rule: at least ten samples beyond the reported value."""

import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

from stats import MIN_BEYOND, tail  # noqa: E402


@pytest.mark.parametrize("n,pct", [(20, 50), (40, 75), (100, 90), (700, 98), (5000, 99)])
def test_tail_percentile_for_sample_count(n, pct):
    samples = [float(i) for i in range(n, 0, -1)]  # order must not matter
    got_pct, value, count = tail(samples)
    assert (got_pct, count) == (pct, n)
    assert sum(x > value for x in samples) >= MIN_BEYOND


def test_tail_is_the_highest_percentile_with_ten_beyond():
    for n in range(20, 400):
        pct, value, _ = tail(range(n))
        assert n - math.ceil(pct * n / 100) >= MIN_BEYOND
        if pct < 99:
            assert n - math.ceil((pct + 1) * n / 100) < MIN_BEYOND


def test_no_tail_below_twenty_samples():
    assert tail(range(19)) is None
    assert tail([]) is None
