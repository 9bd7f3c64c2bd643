"""Tests for datasets, federated partitioners, training and metrics."""

import numpy as np
import pytest

from repro.ml import (
    Dataset,
    LogisticRegression,
    TrainConfig,
    accuracy,
    compute_gradient,
    local_update,
    make_classification,
    mean_loss,
    split_dirichlet,
    split_iid,
    train_test_split,
)


# -- datasets --------------------------------------------------------------------


def test_make_classification_shapes():
    data = make_classification(num_samples=100, num_features=7,
                               num_classes=3)
    assert data.X.shape == (100, 7)
    assert data.y.shape == (100,)
    assert set(np.unique(data.y)) <= {0, 1, 2}
    assert data.num_features == 7
    assert len(data) == 100


def test_make_classification_reproducible():
    a = make_classification(seed=42)
    b = make_classification(seed=42)
    np.testing.assert_array_equal(a.X, b.X)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))


def test_train_test_split_partitions():
    data = make_classification(num_samples=100)
    train, test = train_test_split(data, test_fraction=0.25, seed=0)
    assert len(train) == 75 and len(test) == 25
    with pytest.raises(ValueError):
        train_test_split(data, test_fraction=1.5)


# -- partitioners -----------------------------------------------------------------


def test_split_iid_covers_everything():
    data = make_classification(num_samples=103)
    shards = split_iid(data, 4)
    assert sum(len(s) for s in shards) == 103
    assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1


def test_split_iid_validation():
    data = make_classification(num_samples=10)
    with pytest.raises(ValueError):
        split_iid(data, 0)
    with pytest.raises(ValueError):
        split_iid(data, 11)


def test_split_dirichlet_covers_everything():
    data = make_classification(num_samples=300, num_classes=4)
    shards = split_dirichlet(data, 5, alpha=0.5, seed=1)
    assert sum(len(s) for s in shards) == 300
    assert all(len(s) >= 1 for s in shards)


def test_split_dirichlet_small_alpha_is_skewed():
    data = make_classification(num_samples=600, num_classes=3, seed=2)
    shards = split_dirichlet(data, 3, alpha=0.05, seed=3)
    # With tiny alpha, at least one client should be dominated by one class.
    dominances = []
    for shard in shards:
        _, counts = np.unique(shard.y, return_counts=True)
        dominances.append(counts.max() / counts.sum())
    assert max(dominances) > 0.8


def test_split_dirichlet_validation():
    data = make_classification(num_samples=50)
    with pytest.raises(ValueError):
        split_dirichlet(data, 0)
    with pytest.raises(ValueError):
        split_dirichlet(data, 2, alpha=0.0)


# -- training ----------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_compute_gradient_matches_model():
    data = make_classification(num_samples=50, num_features=4)
    model = LogisticRegression(num_features=4)
    gradient = compute_gradient(model, data)
    _, expected = model.loss_and_gradient(data.X, data.y)
    np.testing.assert_array_equal(gradient, expected)


def test_local_update_does_not_mutate_model():
    data = make_classification(num_samples=50, num_features=4)
    model = LogisticRegression(num_features=4)
    before = model.get_params().copy()
    local_update(model, data, TrainConfig(epochs=2))
    np.testing.assert_array_equal(model.get_params(), before)


def test_local_update_reduces_loss():
    data = make_classification(num_samples=200, num_features=4,
                               class_separation=3.0)
    model = LogisticRegression(num_features=4)
    delta = local_update(model, data, TrainConfig(epochs=5,
                                                  learning_rate=0.5))
    before = mean_loss(model, data)
    model.set_params(model.get_params() + delta)
    assert mean_loss(model, data) < before


def test_local_update_deterministic_given_seed():
    data = make_classification(num_samples=50, num_features=4)
    model = LogisticRegression(num_features=4)
    d1 = local_update(model, data, TrainConfig(), seed=7)
    d2 = local_update(model, data, TrainConfig(), seed=7)
    np.testing.assert_array_equal(d1, d2)


# -- metrics --------------------------------------------------------------------------


def test_metrics_accuracy_bounds():
    data = make_classification(num_samples=50, num_features=3,
                               class_separation=5.0)
    model = LogisticRegression(num_features=3)
    value = accuracy(model, data)
    assert 0.0 <= value <= 1.0
