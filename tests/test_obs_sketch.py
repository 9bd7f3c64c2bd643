"""QuantileSketch: exactness below the threshold, bounds above it."""

import math
import random

import pytest

from repro.analysis.stats import percentile
from repro.obs.sketch import (
    DEFAULT_EXACT_THRESHOLD,
    DEFAULT_RELATIVE_ERROR,
    QuantileSketch,
)


# -- exact mode ------------------------------------------------------------------


def test_exact_mode_percentiles_are_float_equal_to_the_golden():
    """Below the threshold the sketch must be indistinguishable from
    analysis.stats.percentile — the PR-3 exactness contract."""
    rng = random.Random(11)
    values = [rng.lognormvariate(0.0, 2.0) for _ in range(1000)]
    sketch = QuantileSketch(max_exact=4096)
    for value in values:
        sketch.add(value)
    assert sketch.exact
    for q in (0.0, 12.5, 50.0, 75.0, 95.0, 99.0, 99.9, 100.0):
        assert sketch.percentile(q) == percentile(values, q)


def test_exact_mode_accounting_and_values():
    sketch = QuantileSketch(max_exact=16)
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
    with pytest.raises(ValueError):
        QuantileSketch(max_exact=-1)
    with pytest.raises(ValueError):
        QuantileSketch(relative_error=0.0)
    with pytest.raises(ValueError):
        QuantileSketch(relative_error=1.0)


# -- spill / sketch mode ---------------------------------------------------------


def test_spill_happens_strictly_above_max_exact():
    sketch = QuantileSketch(max_exact=10)
    for index in range(10):
        sketch.add(float(index + 1))
    assert sketch.exact  # exactly at the threshold: still exact
    sketch.add(11.0)
    assert not sketch.exact
    assert sketch.count == 11


def test_values_raise_after_spill():
    sketch = QuantileSketch(max_exact=2)
    for value in (1.0, 2.0, 3.0):
        sketch.add(value)
    with pytest.raises(ValueError):
        sketch.values()


def test_sketch_mode_percentiles_respect_the_relative_error_bound():
    """Every quantile estimate must land within relative_error of the
    true quantile's neighbourhood (values at the floor/ceil ranks)."""
    eps = 0.01
    rng = random.Random(23)
    values = [rng.lognormvariate(1.0, 1.5) for _ in range(20_000)]
    sketch = QuantileSketch(max_exact=256, relative_error=eps)
    for value in values:
        sketch.add(value)
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
    sketch = QuantileSketch(max_exact=4)
    values = [0.5, 100.0, 2.0, 8.0, 0.125, 64.0]
    for value in values:
        sketch.add(value)
    assert not sketch.exact
    assert sketch.minimum == 0.125
    assert sketch.maximum == 100.0
    assert sketch.total == sum(values)
    # The tail quantiles honour the relative-error bound around the
    # exact extrema (and never escape [minimum, maximum]).
    eps = sketch.relative_error
    assert 0.125 <= sketch.percentile(0.0) <= 0.125 * (1.0 + eps)
    assert 100.0 * (1.0 - eps) <= sketch.percentile(100.0) <= 100.0


def test_sketch_handles_zeros_and_negatives():
    sketch = QuantileSketch(max_exact=2, relative_error=0.01)
    values = [-8.0, -1.0, 0.0, 0.0, 1.0, 8.0]
    for value in values:
        sketch.add(value)
    assert not sketch.exact
    assert sketch.minimum == -8.0
    assert sketch.maximum == 8.0
    median = sketch.percentile(50.0)
    assert -0.011 <= median <= 0.011  # true median is 0.0
    low = sketch.percentile(10.0)
    assert low < 0.0
    assert abs(low - (-8.0)) <= 8.0 * 0.01 + 1e-9


def test_memory_is_bounded_by_buckets_not_observations():
    sketch = QuantileSketch(max_exact=64, relative_error=0.01)
    rng = random.Random(5)
    for _ in range(50_000):
        sketch.add(rng.uniform(1.0, 1000.0))
    # log_gamma(1000) buckets at 1% error is ~346; far below 50k values.
    assert sketch.bucket_count < 400
    assert sketch.footprint_bytes() < 64 * 1024
    exact = QuantileSketch(max_exact=100_000)
    for _ in range(50_000):
        exact.add(1.0)
    assert sketch.footprint_bytes() < exact.footprint_bytes()


# -- merging ---------------------------------------------------------------------


def _filled(values, **kwargs):
    sketch = QuantileSketch(**kwargs)
    for value in values:
        sketch.add(value)
    return sketch


def test_merge_order_independence_in_sketch_mode():
    rng = random.Random(7)
    shard_a = [rng.lognormvariate(0.0, 2.0) for _ in range(5000)]
    shard_b = [rng.expovariate(0.1) for _ in range(5000)]
    ab = _filled(shard_a, max_exact=64).merge(_filled(shard_b, max_exact=64))
    ba = _filled(shard_b, max_exact=64).merge(_filled(shard_a, max_exact=64))
    assert ab.count == ba.count == 10_000
    assert ab.minimum == ba.minimum
    assert ab.maximum == ba.maximum
    assert ab.total == ba.total  # pairwise float addition commutes
    assert ab.bucket_count == ba.bucket_count
    assert ab.summary() == ba.summary()
    for q in (1.0, 25.0, 50.0, 75.0, 95.0, 99.0):
        assert ab.percentile(q) == ba.percentile(q)


def test_merge_of_exact_sketches_stays_exact_under_the_threshold():
    a = _filled([1.0, 2.0], max_exact=8)
    b = _filled([3.0, 4.0], max_exact=8)
    a.merge(b)
    assert a.exact
    assert a.count == 4
    assert a.percentile(50.0) == percentile([1.0, 2.0, 3.0, 4.0], 50.0)


def test_merge_spills_when_the_union_exceeds_the_threshold():
    a = _filled([float(i + 1) for i in range(5)], max_exact=8)
    b = _filled([float(i + 6) for i in range(5)], max_exact=8)
    a.merge(b)
    assert not a.exact
    assert a.count == 10
    assert a.minimum == 1.0 and a.maximum == 10.0


def test_merge_mixed_modes_and_empty():
    exact = _filled([2.0, 4.0], max_exact=8)
    spilled = _filled([float(i + 1) for i in range(20)], max_exact=4)
    spilled.merge(exact)
    assert not spilled.exact
    assert spilled.count == 22
    before = spilled.count
    spilled.merge(QuantileSketch(max_exact=8))  # empty: no-op
    assert spilled.count == before


def test_merge_rejects_mismatched_relative_error():
    a = QuantileSketch(relative_error=0.01)
    b = QuantileSketch(relative_error=0.02)
    b.add(1.0)
    with pytest.raises(ValueError, match=r"relative_error.*0\.01.*0\.02"):
        a.merge(b)


def test_merge_layout_mismatch_leaves_the_target_untouched():
    """The error path must not half-apply: a rejected merge leaves
    count/total/extrema exactly as they were."""
    a = QuantileSketch(relative_error=0.01)
    for value in (1.0, 2.0, 3.0):
        a.add(value)
    before = (a.count, a.total, a.minimum, a.maximum, a.exact)
    b = QuantileSketch(relative_error=0.05)
    b.add(99.0)
    with pytest.raises(ValueError):
        a.merge(b)
    assert (a.count, a.total, a.minimum, a.maximum, a.exact) == before
    assert percentile(a.values(), 50) == 2.0


def test_merge_mismatch_direction_is_reported_from_the_target():
    """Both merge directions fail; each message leads with the
    target's own relative_error."""
    a = QuantileSketch(relative_error=0.01)
    b = QuantileSketch(relative_error=0.02)
    a.add(1.0)
    b.add(2.0)
    with pytest.raises(ValueError, match=r"0\.01 vs 0\.02"):
        a.merge(b)
    with pytest.raises(ValueError, match=r"0\.02 vs 0\.01"):
        b.merge(a)


def test_defaults_are_sane():
    assert DEFAULT_EXACT_THRESHOLD == 4096
    assert DEFAULT_RELATIVE_ERROR == 0.01
