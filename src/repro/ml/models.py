"""Models trained federatedly: numpy implementations with a flat-vector API.

The protocol layer treats a model as one flat float64 parameter vector that
it segments into partitions (Sec. II: "segment the parameters vector of
the machine learning model into smaller partitions").  Every model here
exposes:

- ``num_params`` and ``get_params()``/``set_params()`` over a flat vector,
- ``loss_and_gradient(X, y)`` returning scalar loss + flat gradient,
- ``predict(X)``.

All gradients are exact analytic derivatives (verified against numerical
differentiation in the tests).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["Model", "LogisticRegression", "MLPClassifier",
           "SyntheticModel"]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels.astype(int)] = 1.0
    return encoded


class Model:
    """Base class: flat-parameter access and SGD-ready gradients."""

    def num_params(self) -> int:
        raise NotImplementedError

    def get_params(self) -> np.ndarray:
        """A writable copy of the parameters, the caller's to change."""
        raise NotImplementedError

    def set_params(self, flat: np.ndarray) -> None:
        """Take ``flat`` as the parameters.  A model may *adopt* an array
        that nothing can change — read-only and owning its buffer — and
        keep that object itself instead of a copy; anything else it
        copies.  Either way the caller's array is never written."""
        raise NotImplementedError

    def adopted(self) -> Optional[np.ndarray]:
        """The read-only array :meth:`set_params` adopted, while it is
        still the parameters; None otherwise, and always for a model
        that copies."""
        return None

    def loss_and_gradient(
        self, X: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def clone(self, params: Optional[np.ndarray] = None) -> "Model":
        """A structurally identical model with copied parameters, or with
        ``params`` as :meth:`set_params` takes them."""
        copy = self.__class__(**self._construction_args())
        copy.set_params(self.get_params() if params is None else params)
        return copy

    def _construction_args(self) -> dict:
        raise NotImplementedError

    def _check_flat(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.shape[0] != self.num_params():
            raise ValueError(
                f"expected {self.num_params()} parameters, got {flat.shape[0]}"
            )
        return flat


class SyntheticModel(Model):
    """A parameter vector with trivial learning dynamics.

    Used by the delay benchmarks, which sweep *model size* (the paper's
    1.3 MB / 1.1 MB partitions and Fig. 3's parameter counts): only the
    byte volume of the parameter vector matters there, so the gradient is
    the fixed ramp ``seed·1e-6 + i·1e-9`` (``seed`` the shard's first
    feature) and training is free.  It adopts a frozen parameter vector
    (:meth:`Model.set_params`), so trainers installing the same update
    can hold one array.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self._params = np.zeros(size)

    def _construction_args(self) -> dict:
        return {"size": self.size}

    def num_params(self) -> int:
        return self.size

    def get_params(self) -> np.ndarray:
        return self._params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        checked = self._check_flat(flat)
        # Adopt an array that cannot change under the model — read-only
        # and owning its buffer, so no writable alias exists — and copy
        # anything else.
        frozen = (checked.base is flat and flat.flags.owndata
                  and not flat.flags.writeable)
        self._params = flat if frozen else checked.copy()

    def adopted(self) -> Optional[np.ndarray]:
        return None if self._params.flags.writeable else self._params

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.zeros(X.shape[0])

    def loss_and_gradient(self, X, y):
        # Derive a cheap gradient that differs per trainer (from the data)
        # AND per element — otherwise IPFS content addressing would
        # deduplicate identical gradient partitions and distort the delay
        # and storage measurements.
        seed_value = float(np.asarray(X).ravel()[0]) if np.asarray(X).size \
            else 0.0
        # seed·1e-6 + i·1e-9, in one allocation and two in-place passes.
        gradient = np.arange(self.size, dtype=np.float64)
        gradient *= 1e-9
        gradient += seed_value * 1e-6
        return 0.0, gradient


class LogisticRegression(Model):
    """Multinomial (softmax) logistic regression with cross-entropy loss."""

    def __init__(self, num_features: int, num_classes: int = 2,
                 l2: float = 0.0, seed: Optional[int] = 0):
        if num_features < 1 or num_classes < 2:
            raise ValueError("need >=1 feature and >=2 classes")
        self.num_features = num_features
        self.num_classes = num_classes
        self.l2 = l2
        rng = np.random.default_rng(seed)
        self.weights = rng.normal(
            scale=0.01, size=(num_features, num_classes)
        )
        self.bias = np.zeros(num_classes)

    def _construction_args(self) -> dict:
        return {
            "num_features": self.num_features,
            "num_classes": self.num_classes,
            "l2": self.l2,
            "seed": 0,
        }

    def num_params(self) -> int:
        return self.num_features * self.num_classes + self.num_classes

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.bias])

    def set_params(self, flat: np.ndarray) -> None:
        flat = self._check_flat(flat)
        split = self.num_features * self.num_classes
        self.weights = flat[:split].reshape(
            self.num_features, self.num_classes
        ).copy()
        self.bias = flat[split:].copy()

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(X @ self.weights + self.bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def loss_and_gradient(self, X, y):
        count = X.shape[0]
        probabilities = self.predict_proba(X)
        targets = _one_hot(y, self.num_classes)
        eps = 1e-12
        loss = -float(
            np.sum(targets * np.log(probabilities + eps))
        ) / count + 0.5 * self.l2 * float(np.sum(self.weights ** 2))
        delta = (probabilities - targets) / count
        grad_w = X.T @ delta + self.l2 * self.weights
        grad_b = delta.sum(axis=0)
        return loss, np.concatenate([grad_w.ravel(), grad_b])


class MLPClassifier(Model):
    """One-hidden-layer tanh MLP with a softmax output layer.

    Large enough to give multi-million-parameter vectors when needed (the
    paper's Fig. 3 sweeps model size), small enough to train quickly in
    tests.
    """

    def __init__(self, num_features: int, hidden: int = 32,
                 num_classes: int = 2, l2: float = 0.0,
                 seed: Optional[int] = 0):
        if num_features < 1 or hidden < 1 or num_classes < 2:
            raise ValueError("invalid architecture")
        self.num_features = num_features
        self.hidden = hidden
        self.num_classes = num_classes
        self.l2 = l2
        rng = np.random.default_rng(seed)
        scale1 = 1.0 / np.sqrt(num_features)
        scale2 = 1.0 / np.sqrt(hidden)
        self.w1 = rng.normal(scale=scale1, size=(num_features, hidden))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(scale=scale2, size=(hidden, num_classes))
        self.b2 = np.zeros(num_classes)

    def _construction_args(self) -> dict:
        return {
            "num_features": self.num_features,
            "hidden": self.hidden,
            "num_classes": self.num_classes,
            "l2": self.l2,
            "seed": 0,
        }

    def num_params(self) -> int:
        return (self.num_features * self.hidden + self.hidden
                + self.hidden * self.num_classes + self.num_classes)

    def get_params(self) -> np.ndarray:
        return np.concatenate([
            self.w1.ravel(), self.b1, self.w2.ravel(), self.b2,
        ])

    def set_params(self, flat: np.ndarray) -> None:
        flat = self._check_flat(flat)
        sizes = [
            self.num_features * self.hidden,
            self.hidden,
            self.hidden * self.num_classes,
            self.num_classes,
        ]
        offsets = np.cumsum([0] + sizes)
        self.w1 = flat[offsets[0]:offsets[1]].reshape(
            self.num_features, self.hidden).copy()
        self.b1 = flat[offsets[1]:offsets[2]].copy()
        self.w2 = flat[offsets[2]:offsets[3]].reshape(
            self.hidden, self.num_classes).copy()
        self.b2 = flat[offsets[3]:offsets[4]].copy()

    def _forward(self, X: np.ndarray):
        hidden_pre = X @ self.w1 + self.b1
        hidden_act = np.tanh(hidden_pre)
        logits = hidden_act @ self.w2 + self.b2
        return hidden_act, _softmax(logits)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def loss_and_gradient(self, X, y):
        count = X.shape[0]
        hidden_act, probabilities = self._forward(X)
        targets = _one_hot(y, self.num_classes)
        eps = 1e-12
        loss = -float(
            np.sum(targets * np.log(probabilities + eps))
        ) / count + 0.5 * self.l2 * (
            float(np.sum(self.w1 ** 2)) + float(np.sum(self.w2 ** 2))
        )
        delta_out = (probabilities - targets) / count
        grad_w2 = hidden_act.T @ delta_out + self.l2 * self.w2
        grad_b2 = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ self.w2.T) * (1.0 - hidden_act ** 2)
        grad_w1 = X.T @ delta_hidden + self.l2 * self.w1
        grad_b1 = delta_hidden.sum(axis=0)
        return loss, np.concatenate([
            grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2,
        ])
