"""Soak test: many rounds with the full feature set enabled at once.

Catches cross-feature interactions (verifiability + merge + batching +
replication + GC + multi-aggregator) that single-feature tests cannot."""

import numpy as np

from repro.core import FLSession, ProtocolConfig
from repro.ml import (
    LogisticRegression,
    TrainConfig,
    accuracy,
    make_classification,
    split_dirichlet,
    train_test_split,
)
from repro.net import NetworkProfile

ROUNDS = 6


def test_everything_on_for_many_rounds():
    data = make_classification(num_samples=800, num_features=12,
                               num_classes=3, class_separation=2.5, seed=31)
    train, test = train_test_split(data, seed=31)
    shards = split_dirichlet(train, 8, alpha=0.5, seed=31)
    config = ProtocolConfig(
        num_partitions=2,
        aggregators_per_partition=2,
        t_train=120.0,
        t_sync=400.0,
        takeover_grace=20.0,
        merge_and_download=True,
        providers_per_aggregator=2,
        verifiable=True,
        batch_registration=True,
        trainer_verification=True,
        trainer_jitter=5.0,
    )
    config.train = TrainConfig(epochs=1, learning_rate=0.4, batch_size=32)
    session = FLSession(
        config,
        lambda: LogisticRegression(num_features=12, num_classes=3, seed=0),
        shards,
        network=NetworkProfile(num_ipfs_nodes=4, replication_factor=2),
    )
    storage_after_gc = []
    for _ in range(ROUNDS):
        metrics = session.run_iteration()
        assert len(metrics.trainers_completed) == 8
        assert metrics.verification_failures == []
        session.collect_garbage(keep_iterations=1)
        storage_after_gc.append(session.storage_bytes)
    # Consensus holds, learning happened, storage stayed bounded.
    session.consensus_params()
    assert accuracy(session.model_of(0), test) > 0.85
    assert max(storage_after_gc) < 3 * min(storage_after_gc)
    assert session.cluster.replications > 0
