"""Datasets and federated partitioners.

Synthetic classification data (no external downloads), plus the two
ways of splitting a dataset across FL trainers:

- IID — uniform random shards,
- Dirichlet non-IID — per-client class mixtures drawn from Dir(alpha),
  the standard benchmark for heterogeneous federated data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = [
    "Dataset",
    "make_classification",
    "split_iid",
    "split_dirichlet",
    "train_test_split",
]


@dataclass
class Dataset:
    """Features plus labels."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y must have the same number of rows")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def num_features(self) -> int:
        return self.X.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.X[indices], self.y[indices])


def make_classification(
    num_samples: int = 1000,
    num_features: int = 10,
    num_classes: int = 2,
    class_separation: float = 2.0,
    seed: Optional[int] = 0,
) -> Dataset:
    """Gaussian-blob classification data with controllable difficulty."""
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=class_separation,
                         size=(num_classes, num_features))
    labels = rng.integers(0, num_classes, size=num_samples)
    features = centers[labels] + rng.normal(
        size=(num_samples, num_features)
    )
    return Dataset(features, labels)


def train_test_split(dataset: Dataset, test_fraction: float = 0.2,
                     seed: Optional[int] = 0):
    """Shuffle and split into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    cut = int(len(dataset) * (1.0 - test_fraction))
    return dataset.subset(order[:cut]), dataset.subset(order[cut:])


def split_iid(dataset: Dataset, num_clients: int,
              seed: Optional[int] = 0) -> List[Dataset]:
    """Uniform random partition into ``num_clients`` near-equal shards."""
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if len(dataset) < num_clients:
        raise ValueError("fewer samples than clients")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    return [dataset.subset(chunk)
            for chunk in np.array_split(order, num_clients)]


def split_dirichlet(dataset: Dataset, num_clients: int, alpha: float = 0.5,
                    seed: Optional[int] = 0,
                    min_samples: int = 1) -> List[Dataset]:
    """Non-IID partition: class proportions per client ~ Dir(alpha).

    Small ``alpha`` concentrates each class on few clients (highly
    heterogeneous); large ``alpha`` approaches IID.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    labels = dataset.y.astype(int)
    classes = np.unique(labels)
    for _ in range(100):  # retry until every client has min_samples
        client_indices: List[List[int]] = [[] for _ in range(num_clients)]
        for cls in classes:
            cls_indices = np.flatnonzero(labels == cls)
            rng.shuffle(cls_indices)
            proportions = rng.dirichlet([alpha] * num_clients)
            counts = np.floor(proportions * len(cls_indices)).astype(int)
            counts[-1] = len(cls_indices) - counts[:-1].sum()
            start = 0
            for client, count in enumerate(counts):
                client_indices[client].extend(
                    cls_indices[start:start + count]
                )
                start += count
        if all(len(idx) >= min_samples for idx in client_indices):
            break
    else:
        raise RuntimeError(
            "could not satisfy min_samples; lower it or raise alpha"
        )
    return [dataset.subset(np.array(sorted(idx), dtype=int))
            for idx in client_indices]
