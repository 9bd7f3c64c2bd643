"""Log-bucket quantile sketch for bounded-memory histograms.

At figure scale (16 trainers) a histogram can keep every raw
observation, so p50/p95/p99 are exact.  Over a long run of hundreds of
trainers that store is O(events); hence a two-mode structure:

- **Exact mode** (up to :data:`DEFAULT_EXACT_THRESHOLD` observations):
  raw values are retained and quantiles are float-equal to
  :func:`repro.analysis.stats.percentile` — the figure-scale behaviour,
  golden-tested in ``tests/test_obs_sketch.py``.
- **Sketch mode** (above the threshold): values spill into DDSketch-style
  log-gamma buckets.  With ``gamma = (1 + e) / (1 - e)``, ``e`` being
  :data:`RELATIVE_ERROR`, a positive
  value ``v`` lands in bucket ``ceil(log_gamma(v))`` and is estimated as
  ``2 * gamma**i / (gamma + 1)``, which is within relative error ``e``
  of every value the bucket can hold.  Memory is O(distinct buckets),
  independent of the observation count.

Zeros are counted in a dedicated slot and negative values in a mirrored
bucket map, so the sketch accepts any float the histograms can see.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

__all__ = [
    "QuantileSketch",
    "DEFAULT_EXACT_THRESHOLD",
    "RELATIVE_ERROR",
]

#: Observations retained verbatim before spilling to buckets.  4096
#: floats is ~32 KiB — far above anything a figure-scale run produces
#: (so those stay exact) and negligible on a long, large run.
DEFAULT_EXACT_THRESHOLD = 4096

#: Relative-error bound for sketch-mode quantiles (1%).
RELATIVE_ERROR = 0.01
_GAMMA = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR)
_LOG_GAMMA = math.log(_GAMMA)

#: Arithmetic memory model (see :meth:`QuantileSketch.footprint_bytes`):
#: bytes per retained exact float and per occupied sketch bucket.  These
#: are deliberate *model* constants — a CPython float in a list costs a
#: pointer plus a 24-byte object; a dict slot costs roughly 64 bytes of
#: key/value/index — chosen so footprints are deterministic across
#: platforms rather than ``sys.getsizeof``-exact.
_BYTES_PER_EXACT_VALUE = 32
_BYTES_PER_BUCKET = 64
_FIXED_OVERHEAD = 256


class QuantileSketch:
    """Bounded-memory quantile estimator with an exact small-n mode.

    ``add`` values, read ``count``/``total``/``minimum``/``maximum``/
    ``mean`` and :meth:`percentile`.
    """

    __slots__ = ("count", "total", "minimum", "maximum",
                 "_exact", "_sorted", "_positive", "_negative", "_zeros")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        #: Raw values while in exact mode; ``None`` once spilled.
        self._exact: List[float] = []
        self._sorted: List[float] = []  # cached sorted view; [] = stale
        self._positive: Dict[int, int] = {}
        self._negative: Dict[int, int] = {}
        self._zeros = 0

    # -- recording ---------------------------------------------------------------

    def add(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self._exact is not None:
            self._exact.append(value)
            self._sorted = []
            if len(self._exact) > DEFAULT_EXACT_THRESHOLD:
                self._spill()
        else:
            self._bucket_add(value)

    def _index(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / _LOG_GAMMA)

    def _bucket_add(self, value: float) -> None:
        if value > 0.0:
            key = self._index(value)
            self._positive[key] = self._positive.get(key, 0) + 1
        elif value < 0.0:
            key = self._index(-value)
            self._negative[key] = self._negative.get(key, 0) + 1
        else:
            self._zeros += 1

    def _spill(self) -> None:
        """Leave exact mode: fold retained values into buckets."""
        for value in self._exact:
            self._bucket_add(value)
        self._exact = None
        self._sorted = []

    # -- reading -----------------------------------------------------------------

    @property
    def exact(self) -> bool:
        """True while every observation is retained verbatim."""
        return self._exact is not None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def bucket_count(self) -> int:
        """Occupied sketch buckets (0 while exact)."""
        occupied = len(self._positive) + len(self._negative)
        return occupied + (1 if self._zeros else 0)

    def values(self) -> List[float]:
        """The raw observations in arrival order (exact mode only)."""
        if self._exact is None:
            raise ValueError(
                "sketch spilled past %d values; raw values are gone "
                "(use percentile()/summary instead)"
                % DEFAULT_EXACT_THRESHOLD)
        return list(self._exact)

    def percentile(self, q: float) -> float:
        """The q-th percentile (exact below the threshold, else within
        :data:`RELATIVE_ERROR` of the true quantile value; 0.0 if
        empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        if self.count == 0:
            return 0.0
        if self._exact is not None:
            return self._exact_percentile(q)
        return self._sketch_percentile(q)

    def _exact_percentile(self, q: float) -> float:
        # Same interpolation as repro.analysis.stats.percentile, on a
        # cached sorted view so the three quantiles of a summary sort
        # once — the float-equality golden test pins the equivalence.
        if not self._sorted:
            self._sorted = sorted(self._exact)
        ordered = self._sorted
        if len(ordered) == 1:
            return float(ordered[0])
        position = (len(ordered) - 1) * q / 100.0
        lower = math.floor(position)
        upper = math.ceil(position)
        if lower == upper:
            return float(ordered[lower])
        weight = position - lower
        return float(ordered[lower] * (1 - weight)
                     + ordered[upper] * weight)

    def _sketch_percentile(self, q: float) -> float:
        # Walk buckets in value order (most-negative first) until the
        # cumulative count covers the target rank, then return the
        # bucket's midpoint estimate clamped into [minimum, maximum].
        target = (self.count - 1) * (q / 100.0)
        cumulative = 0
        estimate = self.maximum
        for value_rank, bucket_count in self._ordered_buckets():
            cumulative += bucket_count
            if cumulative > target:
                estimate = value_rank
                break
        return min(max(estimate, self.minimum), self.maximum)

    def _ordered_buckets(self) -> Iterator[Tuple[float, int]]:
        """(estimate, count) pairs in ascending value order."""
        gamma = _GAMMA
        scale = 2.0 / (gamma + 1.0)
        for key in sorted(self._negative, reverse=True):
            yield -(gamma ** key) * scale, self._negative[key]
        if self._zeros:
            yield 0.0, self._zeros
        for key in sorted(self._positive):
            yield (gamma ** key) * scale, self._positive[key]

    def summary(self) -> Dict[str, float]:
        """The digest the run manifest records."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    # -- accounting --------------------------------------------------------------

    def footprint_bytes(self) -> int:
        """Deterministic model of resident memory (see module constants).

        An arithmetic model rather than ``sys.getsizeof`` so telemetry
        budgets in manifests and CI gates are platform-stable.
        """
        if self._exact is not None:
            retained = len(self._exact) * _BYTES_PER_EXACT_VALUE
            if self._sorted:
                retained *= 2
            return _FIXED_OVERHEAD + retained
        occupied = len(self._positive) + len(self._negative)
        return _FIXED_OVERHEAD + occupied * _BYTES_PER_BUCKET

    def __repr__(self) -> str:
        mode = "exact" if self.exact else f"sketch:{self.bucket_count}"
        return f"<QuantileSketch n={self.count} {mode}>"
