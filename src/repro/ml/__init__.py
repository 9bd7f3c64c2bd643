"""ML substrate: models, data, local training, and reference FedAvg.

Public surface:

- models: :class:`LinearRegression`, :class:`LogisticRegression`,
  :class:`MLPClassifier` (flat-parameter-vector API).
- data: :func:`make_classification`, :func:`make_regression`,
  federated partitioners :func:`split_iid` / :func:`split_dirichlet` /
  :func:`split_shards`.
- training: :class:`TrainConfig`, :func:`compute_gradient`,
  :func:`local_update`.
- reference algorithms: :func:`run_fedavg`, :func:`run_fedsgd`.
- metrics: :func:`accuracy`, :func:`mean_loss`, :func:`model_distance`,
  :func:`evaluate_model`.
"""

from .data import (
    Dataset,
    make_classification,
    make_regression,
    split_dirichlet,
    split_iid,
    split_shards,
    train_test_split,
)
from .fedavg import FedAvgResult, fedavg_aggregate, run_fedavg, run_fedsgd
from .metrics import accuracy, evaluate_model, mean_loss, model_distance
from .models import (
    LinearRegression,
    LogisticRegression,
    MLPClassifier,
    Model,
    SyntheticModel,
)
from .training import TrainConfig, compute_gradient, local_update, sgd_epoch

__all__ = [
    "Dataset",
    "FedAvgResult",
    "LinearRegression",
    "LogisticRegression",
    "MLPClassifier",
    "Model",
    "SyntheticModel",
    "TrainConfig",
    "accuracy",
    "compute_gradient",
    "evaluate_model",
    "fedavg_aggregate",
    "local_update",
    "make_classification",
    "make_regression",
    "mean_loss",
    "model_distance",
    "run_fedavg",
    "run_fedsgd",
    "sgd_epoch",
    "split_dirichlet",
    "split_iid",
    "split_shards",
    "train_test_split",
]
