"""Percentiles that refuse to be quoted from too few samples."""

from __future__ import annotations

import math

#: A percentile is emitted only when at least this many samples lie
#: strictly beyond it; below that, one outlier is the whole tail.
MIN_BEYOND = 10

#: Samples a p95 needs: MIN_BEYOND of them in the top 5%.
MIN_SAMPLES_P95 = 20 * MIN_BEYOND


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    rank = max(1, math.ceil(q / 100 * len(data)))
    return data[rank - 1]


def beyond(values, value: float) -> int:
    """How many samples are strictly greater than ``value``."""
    return sum(1 for v in values if v > value)


def summarize(values, q: float) -> tuple[float, int] | None:
    """``(percentile, sample count)``, or ``None`` when the tail is thin.

    ``None`` means fewer than :data:`MIN_BEYOND` samples lie beyond the
    percentile, so it would be set by a handful of outliers.
    """
    values = list(values)
    if not values:
        return None
    p = percentile(values, q)
    if beyond(values, p) < MIN_BEYOND:
        return None
    return p, len(values)
