"""Percentiles of measured series."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("empty series")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    value = ordered[low] * (1 - weight) + ordered[high] * weight
    # Rounding (subnormals underflow to 0.0) must not leave the bracket.
    return float(min(max(value, ordered[low]), ordered[high]))
