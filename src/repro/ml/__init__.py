"""ML substrate: models, data and local training.

Public surface:

- models: :class:`LogisticRegression`, :class:`MLPClassifier`,
  :class:`SyntheticModel` (flat-parameter-vector API).
- data: :func:`make_classification`, federated partitioners
  :func:`split_iid` / :func:`split_dirichlet`.
- training: :class:`TrainConfig`, :func:`compute_gradient`,
  :func:`local_update`.
- metrics: :func:`accuracy`, :func:`mean_loss`.
"""

from .data import (
    Dataset,
    make_classification,
    split_dirichlet,
    split_iid,
    train_test_split,
)
from .metrics import accuracy, mean_loss
from .models import (
    LogisticRegression,
    MLPClassifier,
    Model,
    SyntheticModel,
)
from .training import TrainConfig, compute_gradient, local_update

__all__ = [
    "Dataset",
    "LogisticRegression",
    "MLPClassifier",
    "Model",
    "SyntheticModel",
    "TrainConfig",
    "accuracy",
    "compute_gradient",
    "local_update",
    "make_classification",
    "mean_loss",
    "split_dirichlet",
    "split_iid",
    "train_test_split",
]
