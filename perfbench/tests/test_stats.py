"""The percentile rule: report only with ten samples beyond."""

import math

from perfbench import stats


def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(list(range(199)), 95) is None
    assert stats.percentile(list(range(200)), 95) == 189
    assert stats.percentile(list(range(19)), 50) is None
    assert stats.percentile(list(range(20)), 50) == 9
    assert stats.min_samples(95) == 200
    assert stats.min_samples(50) == 20


def test_failures_count_as_misses():
    values = [1.0] * 180 + [math.inf] * 20
    assert stats.percentile(values, 50) == 1.0
    assert stats.percentile(values, 95) == math.inf
