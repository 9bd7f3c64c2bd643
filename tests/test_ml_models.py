"""Tests for models: gradient correctness (vs numerical differentiation),
parameter flattening, and training behaviour."""

import numpy as np
import pytest

from repro.ml import (
    Dataset,
    LogisticRegression,
    MLPClassifier,
    SyntheticModel,
    make_classification,
)


def numerical_gradient(model, X, y, epsilon=1e-6):
    """Central-difference gradient of the model loss."""
    base = model.get_params()
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        bumped = base.copy()
        bumped[i] += epsilon
        model.set_params(bumped)
        loss_plus, _ = model.loss_and_gradient(X, y)
        bumped[i] -= 2 * epsilon
        model.set_params(bumped)
        loss_minus, _ = model.loss_and_gradient(X, y)
        grad[i] = (loss_plus - loss_minus) / (2 * epsilon)
    model.set_params(base)
    return grad


# -- parameter flattening ----------------------------------------------------------


@pytest.mark.parametrize("model_factory", [
    lambda: SyntheticModel(size=6),
    lambda: LogisticRegression(num_features=5, num_classes=3),
    lambda: MLPClassifier(num_features=5, hidden=7, num_classes=3),
])
def test_param_roundtrip(model_factory):
    model = model_factory()
    flat = model.get_params()
    assert flat.shape == (model.num_params(),)
    rng = np.random.default_rng(1)
    new = rng.normal(size=flat.shape)
    model.set_params(new)
    np.testing.assert_allclose(model.get_params(), new)


@pytest.mark.parametrize("model_factory", [
    lambda: SyntheticModel(size=4),
    lambda: LogisticRegression(num_features=4, num_classes=2),
    lambda: MLPClassifier(num_features=4, hidden=3),
])
def test_set_params_wrong_size_raises(model_factory):
    model = model_factory()
    with pytest.raises(ValueError):
        model.set_params(np.zeros(model.num_params() + 1))


def test_num_params_formulas():
    assert SyntheticModel(size=11).num_params() == 11
    assert LogisticRegression(num_features=10, num_classes=3).num_params() == 33
    assert MLPClassifier(num_features=10, hidden=8,
                         num_classes=4).num_params() == 10 * 8 + 8 + 8 * 4 + 4


def test_clone_is_independent():
    model = LogisticRegression(num_features=4, num_classes=2)
    copy = model.clone()
    np.testing.assert_allclose(copy.get_params(), model.get_params())
    copy.set_params(copy.get_params() + 1.0)
    assert not np.allclose(copy.get_params(), model.get_params())


def test_constructor_validation():
    with pytest.raises(ValueError):
        SyntheticModel(size=0)
    with pytest.raises(ValueError):
        LogisticRegression(num_features=3, num_classes=1)
    with pytest.raises(ValueError):
        MLPClassifier(num_features=3, hidden=0)


# -- gradient correctness -----------------------------------------------------------


def test_logistic_regression_gradient_exact():
    data = make_classification(num_samples=60, num_features=4,
                               num_classes=3, seed=2)
    model = LogisticRegression(num_features=4, num_classes=3,
                               l2=0.01, seed=3)
    _, analytic = model.loss_and_gradient(data.X, data.y)
    numeric = numerical_gradient(model, data.X, data.y)
    np.testing.assert_allclose(analytic, numeric, atol=1e-5)


def test_mlp_gradient_exact():
    data = make_classification(num_samples=40, num_features=3,
                               num_classes=2, seed=2)
    model = MLPClassifier(num_features=3, hidden=5, num_classes=2,
                          l2=0.01, seed=3)
    _, analytic = model.loss_and_gradient(data.X, data.y)
    numeric = numerical_gradient(model, data.X, data.y)
    np.testing.assert_allclose(analytic, numeric, atol=1e-4)


# -- learning behaviour -------------------------------------------------------------


def test_logistic_regression_separates_blobs():
    data = make_classification(num_samples=400, num_features=5,
                               num_classes=2, class_separation=3.0, seed=6)
    model = LogisticRegression(num_features=5, num_classes=2, seed=7)
    for _ in range(200):
        _, grad = model.loss_and_gradient(data.X, data.y)
        model.set_params(model.get_params() - 0.5 * grad)
    predictions = model.predict(data.X)
    assert np.mean(predictions == data.y) > 0.95


def test_mlp_learns_xor():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, size=(400, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    model = MLPClassifier(num_features=2, hidden=16, num_classes=2, seed=9)
    for _ in range(600):
        _, grad = model.loss_and_gradient(X, y)
        model.set_params(model.get_params() - 1.0 * grad)
    assert np.mean(model.predict(X) == y) > 0.9


def test_predict_proba_sums_to_one():
    data = make_classification(num_samples=20, num_features=3,
                               num_classes=4, seed=10)
    model = LogisticRegression(num_features=3, num_classes=4)
    proba = model.predict_proba(data.X)
    np.testing.assert_allclose(proba.sum(axis=1), np.ones(20))
    mlp = MLPClassifier(num_features=3, hidden=4, num_classes=4)
    np.testing.assert_allclose(
        mlp.predict_proba(data.X).sum(axis=1), np.ones(20)
    )
