"""Tests for the arbitrary-depth MLP."""

import numpy as np
import pytest

from repro.core import FLSession, ProtocolConfig
from repro.ml import (
    DeepMLPClassifier,
    make_classification,
    split_iid,
    train_test_split,
    accuracy,
    TrainConfig,
)
from repro.net import NetworkProfile

from tests.test_ml_models import numerical_gradient


def test_param_count_formula():
    model = DeepMLPClassifier(num_features=10, hidden_layers=(8, 6),
                              num_classes=3)
    expected = (10 * 8 + 8) + (8 * 6 + 6) + (6 * 3 + 3)
    assert model.num_params() == expected


def test_param_roundtrip():
    model = DeepMLPClassifier(num_features=5, hidden_layers=(4, 3),
                              num_classes=2)
    rng = np.random.default_rng(0)
    flat = rng.normal(size=model.num_params())
    model.set_params(flat)
    np.testing.assert_allclose(model.get_params(), flat)


def test_validation():
    with pytest.raises(ValueError):
        DeepMLPClassifier(num_features=0, hidden_layers=(4,))
    with pytest.raises(ValueError):
        DeepMLPClassifier(num_features=4, hidden_layers=())
    with pytest.raises(ValueError):
        DeepMLPClassifier(num_features=4, hidden_layers=(4, 0))
    with pytest.raises(ValueError):
        DeepMLPClassifier(num_features=4, hidden_layers=(4,),
                          num_classes=1)


def test_gradient_matches_numerical_two_layers():
    data = make_classification(num_samples=30, num_features=4,
                               num_classes=3, seed=1)
    model = DeepMLPClassifier(num_features=4, hidden_layers=(6, 5),
                              num_classes=3, l2=0.01, seed=2)
    _, analytic = model.loss_and_gradient(data.X, data.y)
    numeric = numerical_gradient(model, data.X, data.y)
    np.testing.assert_allclose(analytic, numeric, atol=1e-4)


def _kink_margin(model, X):
    """Smallest |pre-activation| across ReLU layers (central differences
    are unreliable within epsilon of a kink)."""
    margin = np.inf
    current = X
    for index in range(len(model.weights) - 1):
        pre = current @ model.weights[index] + model.biases[index]
        margin = min(margin, float(np.min(np.abs(pre))))
        current = np.maximum(0.0, pre)
    return margin


def test_gradient_matches_numerical_three_layers():
    data = make_classification(num_samples=25, num_features=3,
                               num_classes=2, seed=3)
    # Find a seed whose parameter point sits away from every ReLU kink,
    # so the central-difference reference is valid everywhere.
    for seed in range(4, 50):
        model = DeepMLPClassifier(num_features=3, hidden_layers=(5, 4, 3),
                                  num_classes=2, seed=seed)
        if _kink_margin(model, data.X) > 1e-4:
            break
    else:
        pytest.skip("no kink-free parameter point found")
    _, analytic = model.loss_and_gradient(data.X, data.y)
    numeric = numerical_gradient(model, data.X, data.y)
    np.testing.assert_allclose(analytic, numeric, atol=1e-4)


def test_clone_independent():
    model = DeepMLPClassifier(num_features=4, hidden_layers=(4,),
                              num_classes=2)
    copy = model.clone()
    np.testing.assert_allclose(copy.get_params(), model.get_params())
    copy.set_params(copy.get_params() + 1.0)
    assert not np.allclose(copy.get_params(), model.get_params())


def test_learns_nontrivial_task():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(500, 2))
    y = ((X[:, 0] ** 2 + X[:, 1] ** 2) > 0.5).astype(int)  # ring
    model = DeepMLPClassifier(num_features=2, hidden_layers=(24, 16),
                              num_classes=2, seed=6)
    for _ in range(800):
        _, grad = model.loss_and_gradient(X, y)
        model.set_params(model.get_params() - 0.5 * grad)
    assert np.mean(model.predict(X) == y) > 0.9


def test_deep_mlp_in_full_protocol():
    data = make_classification(num_samples=640, num_features=10,
                               num_classes=3, class_separation=2.5, seed=7)
    train, test = train_test_split(data, seed=7)
    shards = split_iid(train, 4, seed=7)
    config = ProtocolConfig(num_partitions=3, t_train=300.0, t_sync=600.0)
    config.train = TrainConfig(epochs=2, learning_rate=0.2, batch_size=32)
    session = FLSession(
        config,
        lambda: DeepMLPClassifier(num_features=10, hidden_layers=(16, 8),
                                  num_classes=3, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4),
    )
    initial = accuracy(session.model_of(0), test)
    session.run(rounds=3)
    session.consensus_params()
    assert accuracy(session.model_of(0), test) > max(0.8, initial)
