"""QuantileSketch: exactness below the threshold, bounds above it."""

import math
import random

import pytest

from repro.analysis.stats import percentile
from repro.obs.sketch import (
    DEFAULT_EXACT_THRESHOLD,
    RELATIVE_ERROR,
    QuantileSketch,
)


# -- exact mode ------------------------------------------------------------------


def test_exact_mode_percentiles_are_float_equal_to_the_golden():
    """Below the threshold the sketch must be indistinguishable from
    analysis.stats.percentile — the PR-3 exactness contract."""
    rng = random.Random(11)
    values = [rng.lognormvariate(0.0, 2.0) for _ in range(1000)]
    sketch = QuantileSketch()
    for value in values:
        sketch.add(value)
    assert sketch.exact
    for q in (0.0, 12.5, 50.0, 75.0, 95.0, 99.0, 99.9, 100.0):
        assert sketch.percentile(q) == percentile(values, q)


def test_exact_mode_accounting_and_values():
    sketch = QuantileSketch()
    for value in (3.0, 1.0, 2.0):
        sketch.add(value)
    assert sketch.count == 3
    assert sketch.total == 6.0
    assert sketch.minimum == 1.0
    assert sketch.maximum == 3.0
    assert sketch.mean == 2.0
    assert sketch.values() == [3.0, 1.0, 2.0]  # arrival order


def test_empty_sketch_is_safe():
    sketch = QuantileSketch()
    assert sketch.count == 0
    assert sketch.percentile(50.0) == 0.0
    assert sketch.mean == 0.0
    assert sketch.values() == []
    assert sketch.summary() == {"count": 0}


def test_summary_is_the_exact_digest_of_what_was_added_so_far():
    sketch = QuantileSketch()
    values = [float(v) for v in range(1, 101)]
    for value in values:
        sketch.add(value)
    assert sketch.summary() == {
        "count": 100, "sum": sum(values), "min": 1.0, "max": 100.0,
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
        "p99": percentile(values, 99.0),
    }
    sketch.summary()["count"] = -1  # a caller's edit must not leak back
    sketch.add(1000.0)
    assert sketch.summary()["count"] == 101
    assert sketch.summary()["max"] == 1000.0


def test_percentile_validates_q():
    sketch = QuantileSketch()
    sketch.add(1.0)
    with pytest.raises(ValueError):
        sketch.percentile(101.0)
    with pytest.raises(ValueError):
        sketch.percentile(-1.0)


def test_constructor_validation():
    """The exactness threshold is one module constant, not a knob."""
    with pytest.raises(TypeError):
        QuantileSketch(16)


# -- spill / sketch mode ---------------------------------------------------------


def _filled(values):
    sketch = QuantileSketch()
    for value in values:
        sketch.add(value)
    return sketch


def test_spill_happens_strictly_above_the_threshold():
    sketch = _filled(float(index + 1)
                     for index in range(DEFAULT_EXACT_THRESHOLD))
    assert sketch.exact  # exactly at the threshold: still exact
    sketch.add(0.5)
    assert not sketch.exact
    assert sketch.count == DEFAULT_EXACT_THRESHOLD + 1


def test_values_raise_after_spill():
    sketch = _filled(float(index + 1)
                     for index in range(DEFAULT_EXACT_THRESHOLD + 1))
    with pytest.raises(ValueError):
        sketch.values()


def test_sketch_mode_percentiles_respect_the_relative_error_bound():
    """Every quantile estimate must land within RELATIVE_ERROR of the
    true quantile's neighbourhood (values at the floor/ceil ranks)."""
    eps = RELATIVE_ERROR
    rng = random.Random(23)
    values = [rng.lognormvariate(1.0, 1.5) for _ in range(20_000)]
    sketch = _filled(values)
    assert not sketch.exact
    ordered = sorted(values)
    slack = 1e-9
    for q in (1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        position = (len(ordered) - 1) * q / 100.0
        lo = ordered[math.floor(position)]
        hi = ordered[math.ceil(position)]
        estimate = sketch.percentile(q)
        assert lo * (1.0 - eps) - slack <= estimate \
            <= hi * (1.0 + eps) + slack, (q, estimate, lo, hi)


def test_sketch_extrema_and_sum_stay_exact_after_spill():
    values = [0.5, 100.0, 2.0, 8.0, 0.125, 64.0] \
        + [1.0 + index / DEFAULT_EXACT_THRESHOLD
           for index in range(DEFAULT_EXACT_THRESHOLD)]
    sketch = _filled(values)
    assert not sketch.exact
    assert sketch.minimum == 0.125
    assert sketch.maximum == 100.0
    assert sketch.total == sum(values)
    # The tail quantiles honour the relative-error bound around the
    # exact extrema (and never escape [minimum, maximum]).
    eps = RELATIVE_ERROR
    assert 0.125 <= sketch.percentile(0.0) <= 0.125 * (1.0 + eps)
    assert 100.0 * (1.0 - eps) <= sketch.percentile(100.0) <= 100.0


def test_sketch_handles_zeros_and_negatives():
    # 700 copies of the pattern: 4 200 values, past the threshold.
    sketch = _filled([-8.0, -1.0, 0.0, 0.0, 1.0, 8.0] * 700)
    assert not sketch.exact
    assert sketch.minimum == -8.0
    assert sketch.maximum == 8.0
    median = sketch.percentile(50.0)
    assert -0.011 <= median <= 0.011  # true median is 0.0
    low = sketch.percentile(10.0)
    assert low < 0.0
    assert abs(low - (-8.0)) <= 8.0 * 0.01 + 1e-9


def test_memory_is_bounded_by_buckets_not_observations():
    rng = random.Random(5)
    sketch = _filled(rng.uniform(1.0, 1000.0) for _ in range(50_000))
    # log_gamma(1000) buckets at 1% error is ~346; far below 50k values.
    assert sketch.bucket_count < 400
    assert sketch.footprint_bytes() < 64 * 1024
    # Cheaper than the exact sketch holding the threshold's worth.
    exact = _filled([1.0] * DEFAULT_EXACT_THRESHOLD)
    assert exact.exact
    assert sketch.footprint_bytes() < exact.footprint_bytes()


def test_defaults_are_sane():
    assert DEFAULT_EXACT_THRESHOLD == 4096
    assert RELATIVE_ERROR == 0.01
