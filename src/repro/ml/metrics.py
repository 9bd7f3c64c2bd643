"""Evaluation metrics."""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .models import Model


def accuracy(model: Model, dataset: Dataset) -> float:
    """Fraction of correctly classified samples."""
    predictions = model.predict(dataset.X)
    return float(np.mean(predictions == dataset.y))


def mean_loss(model: Model, dataset: Dataset) -> float:
    """The model's loss on ``dataset``."""
    loss, _ = model.loss_and_gradient(dataset.X, dataset.y)
    return loss
