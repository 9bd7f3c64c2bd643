#!/usr/bin/env python
"""A realistic cross-device deployment, everything turned on.

The paper's motivating scenario: a small enterprise launches an FL task
over its customers' devices — no direct links, heterogeneous bandwidth,
devices coming and going.  This example combines the full feature set:

- 16 trainers with heterogeneous bandwidths and arrival jitter,
- non-IID local data (Dirichlet alpha = 0.5),
- 2 aggregators per partition with one dropping out mid-task,
- merge-and-download, batched registration,
- verifiable aggregation with one *malicious* aggregator,
- storage replication and per-round garbage collection.

Run:  python examples/cross_device_deployment.py
"""

import numpy as np

from repro import FLSession, NetworkProfile, ProtocolConfig
from repro.core import AlterUpdateBehavior
from repro.ml import (
    LogisticRegression,
    TrainConfig,
    accuracy,
    make_classification,
    split_dirichlet,
    train_test_split,
)

NUM_TRAINERS = 16
NUM_FEATURES = 20
ROUNDS = 3


def main():
    data = make_classification(num_samples=2400, num_features=NUM_FEATURES,
                               num_classes=4, class_separation=2.5, seed=21)
    train, test = train_test_split(data, seed=21)
    shards = split_dirichlet(train, NUM_TRAINERS, alpha=0.5, seed=21)

    rng = np.random.default_rng(21)
    bandwidths = rng.choice([5.0, 10.0, 20.0], size=NUM_TRAINERS).tolist()

    config = ProtocolConfig(
        num_partitions=2,
        aggregators_per_partition=2,
        t_train=120.0,
        t_sync=400.0,
        takeover_grace=20.0,
        merge_and_download=True,
        providers_per_aggregator=0,    # sqrt optimum
        verifiable=True,
        batch_registration=True,
        trainer_jitter=10.0,
    )
    config.train = TrainConfig(epochs=2, learning_rate=0.4, batch_size=32)

    session = FLSession(
        config,
        model_factory=lambda: LogisticRegression(
            num_features=NUM_FEATURES, num_classes=4, seed=0),
        datasets=shards,
        network=NetworkProfile(
            num_ipfs_nodes=8,
            bandwidth_mbps=10.0,
            trainer_bandwidths_mbps=bandwidths,
            replication_factor=2,
        ),
        behaviors={"aggregator-1": AlterUpdateBehavior(offset=2.0)},
    )

    # One honest aggregator drops out before round 1.
    dead = session.aggregators.pop(2)
    print(f"deployment: {NUM_TRAINERS} heterogeneous trainers "
          f"(5-20 Mbps), Dirichlet(0.5) data")
    print(f"adversary : aggregator-1 poisons its uploads")
    print(f"dropout   : {dead.name} never shows up")
    print()
    print("round  done/16  takeovers  rejected  acc     storage kB")
    for round_index in range(ROUNDS):
        metrics = session.run_iteration()
        reclaimed = session.collect_garbage(keep_iterations=1)
        test_accuracy = accuracy(session.model_of(0), test)
        rejected = len([f for f in metrics.verification_failures])
        print(f"{round_index:>5}  {len(metrics.trainers_completed):>7}"
              f"  {len(metrics.takeovers):>9}  {rejected:>8}"
              f"  {test_accuracy:.3f}  {session.storage_bytes / 1e3:>9.1f}")

    session.consensus_params()
    print()
    print("despite jitter, heterogeneity, a poisoner and a dropout:")
    print("  - every completed round installed a verified update,")
    print("  - all online trainers share one model,")
    print(f"  - replications: {session.cluster.replications}")


if __name__ == "__main__":
    main()
