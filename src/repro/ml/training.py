"""Local training: the trainer-side learning step of each FL iteration.

Each round a trainer computes an update on its local shard.  Two styles
are supported, both producing a flat float64 vector to be partitioned,
uploaded and aggregated:

- :func:`compute_gradient` — one full-batch gradient (FedSGD style); the
  averaged aggregate equals the centralized gradient exactly, which the
  convergence-equivalence experiment exploits.
- :func:`local_update` — E epochs of minibatch SGD, returning the
  parameter delta (FedAvg style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .models import Model


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for a local training pass."""

    learning_rate: float = 0.1
    epochs: int = 1
    batch_size: int = 32

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def compute_gradient(model: Model, dataset: Dataset, with_loss: bool = False):
    """The full-batch gradient of the model's loss on ``dataset``;
    ``(loss, gradient)`` ``with_loss`` — the one pass computes both."""
    loss, gradient = model.loss_and_gradient(dataset.X, dataset.y)
    return (loss, gradient) if with_loss else gradient


def sgd_epoch(model: Model, dataset: Dataset, learning_rate: float,
              batch_size: int, rng: np.random.Generator) -> float:
    """One shuffled minibatch-SGD epoch in place; returns the mean loss."""
    order = rng.permutation(len(dataset))
    losses = []
    for start in range(0, len(order), batch_size):
        batch = order[start:start + batch_size]
        loss, gradient = model.loss_and_gradient(
            dataset.X[batch], dataset.y[batch]
        )
        model.set_params(model.get_params() - learning_rate * gradient)
        losses.append(loss)
    return float(np.mean(losses))


def local_update(model: Model, dataset: Dataset, config: TrainConfig,
                 seed: Optional[int] = 0) -> np.ndarray:
    """FedAvg-style client step: train locally, return the parameter delta.

    The caller's model is left untouched; training happens on a clone.
    The returned vector is ``trained_params - original_params``, so a
    server applying the *average* of client deltas performs exactly
    FedAvg.
    """
    rng = np.random.default_rng(seed)
    worker = model.clone()
    original = model.get_params()
    for _ in range(config.epochs):
        sgd_epoch(worker, dataset, config.learning_rate,
                  config.batch_size, rng)
    return worker.get_params() - original
