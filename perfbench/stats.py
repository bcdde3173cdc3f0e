"""Percentiles with the sample count that backs them."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: samples per group; p90 of a group has 10 samples beyond it
GROUP = 100


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between ranks.

    Matches ``statistics.quantiles(..., method="inclusive")`` and
    NumPy's default.  Raises on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be within [0, 1], got {q}")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q`` rank."""
    return count - 1 - math.floor(q * (count - 1)) if count else 0


def grouped_percentile(values: Sequence[float], q: float,
                       size: int = GROUP) -> float:
    """Median over successive groups of ``size`` samples of each group's ``q``.

    Samples must be in the order they were taken.  A partial last group
    is dropped; with fewer than ``size`` samples the one group is all of
    them.  A stall that lasts a few seconds then moves one group's
    figure, not the reported one.
    """
    groups = [values[start:start + size]
              for start in range(0, len(values) - size + 1, size)]
    return statistics.median(percentile(group, q) for group in groups or [values])


def summary_ms(values_ns: Sequence[int], q: float = 0.9) -> Dict[str, float]:
    """Grouped p50 and ``q`` tail of nanosecond timings in ms, with counts."""
    values = [value / 1e6 for value in values_ns]
    size = min(GROUP, len(values))
    return {
        "p50": grouped_percentile(values, 0.5),
        "tail": grouped_percentile(values, q),
        "count": len(values),
        "groups": max(1, len(values) // GROUP),
        "beyond": samples_beyond(size, q),
    }
