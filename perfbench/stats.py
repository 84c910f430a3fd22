"""Percentiles under the ten-beyond rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` if the sample is too small.

    ``values`` may hold ``math.inf`` for operations that failed or were
    refused: they count as misses of any latency limit.  The percentile is
    withheld unless ``MIN_BEYOND`` samples rank above it, so p95 needs at
    least 200 samples and p50 at least 20.
    """
    n = len(values)
    if n == 0 or not 0 < q < 100:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def min_samples(q: float) -> int:
    """Smallest sample size for which :func:`percentile` reports ``q``."""
    n = 1
    while percentile([0.0] * n, q) is None:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
