"""Tests for the statistics helpers plus a second coverage round over
baseline options and telemetry paths."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import percentile
from repro.baselines import DirectIPLSSession
from repro.core import ProtocolConfig
from repro.ml import LogisticRegression, make_classification, split_iid


# -- stats --------------------------------------------------------------------


def test_percentile_interpolation():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0
    assert percentile([5.0], 73) == 5.0
    with pytest.raises(ValueError):
        percentile(values, 101)
    with pytest.raises(ValueError):
        percentile([], 50)


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=40))
@example([5e-324, 5e-324])  # a·(1−w) + b·w underflows to 0.0
def test_percentile_within_range_property(values):
    for q in (0, 25, 50, 75, 100):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)


# -- coverage round 2: baseline options ------------------------------------------


def make_shards(num_trainers=4):
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=1)
    return split_iid(data, num_trainers, seed=1)


def factory():
    return LogisticRegression(num_features=8, num_classes=2, seed=0)


def test_direct_ipls_gradient_mode():
    config = ProtocolConfig(num_partitions=2, t_train=300, t_sync=600,
                            update_mode="gradient", learning_rate=0.3)
    session = DirectIPLSSession(config, factory, make_shards())
    session.run(rounds=2)
    session.consensus_params()
    assert len(session.metrics.iterations) == 2
