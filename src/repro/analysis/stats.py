"""Summary statistics for multi-seed experiment series.

Delay experiments in this repo are deterministic given a seed; when a
question involves randomness (gossip topologies, Dirichlet splits,
provider shuffling) the honest answer is a distribution.  This module
provides the small set of estimators the benchmarks need: mean/std,
percentiles, and a seed-deterministic bootstrap confidence interval.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

__all__ = ["Summary", "summarize", "percentile", "bootstrap_ci"]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one measured series."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.4g} std={self.std:.4g} "
            f"min={self.minimum:.4g} med={self.median:.4g} "
            f"max={self.maximum:.4g}"
        )


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


def summarize(values: Sequence[float]) -> Summary:
    """Mean, sample std, min/median/max of a series."""
    if not values:
        raise ValueError("empty series")
    count = len(values)
    mean = sum(values) / count
    if count > 1:
        variance = sum((v - mean) ** 2 for v in values) / (count - 1)
    else:
        variance = 0.0
    return Summary(
        count=count,
        mean=mean,
        std=math.sqrt(variance),
        minimum=float(min(values)),
        median=percentile(values, 50.0),
        maximum=float(max(values)),
    )


def bootstrap_ci(
    values: Sequence[float],
    statistic: Callable[[Sequence[float]], float] = None,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Seed-deterministic percentile-bootstrap confidence interval.

    Returns ``(low, high)`` for the given statistic (default: the mean).
    """
    if not values:
        raise ValueError("empty series")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if statistic is None:
        statistic = lambda vs: sum(vs) / len(vs)  # noqa: E731
    rng = random.Random(seed)
    estimates: List[float] = []
    count = len(values)
    for _ in range(resamples):
        resample = [values[rng.randrange(count)] for _ in range(count)]
        estimates.append(statistic(resample))
    alpha = (1.0 - confidence) / 2.0
    return (
        percentile(estimates, 100.0 * alpha),
        percentile(estimates, 100.0 * (1.0 - alpha)),
    )
