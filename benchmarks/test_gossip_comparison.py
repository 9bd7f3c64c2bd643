"""Sec. I motivation: purely decentralized (gossip) FL vs our protocol.

"Purely decentralized FL seems tempting ... However, it may not always
achieve the same performance in model accuracy and convergence as
centralized FL, and this highly depends on the nature of the dataset."

We quantify this on a strongly non-IID workload (Dirichlet alpha = 0.1):
gossip averaging with fanout 2 vs our protocol (which computes exact
FedAvg).  Expected shape: our accuracy dominates round for round, and
gossip never reaches model consensus (positive divergence) while our
trainers hold bit-identical models.
"""

import numpy as np
from _helpers import save_table

from repro.analysis import format_table
from repro.baselines.gossip import GossipFLSession
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

ROUNDS = 4
NUM_TRAINERS = 8
NUM_FEATURES = 12


def test_gossip_vs_protocol_non_iid(benchmark):
    data = make_classification(num_samples=1200, num_features=NUM_FEATURES,
                               num_classes=4, class_separation=2.0, seed=9)
    train, test = train_test_split(data, seed=9)
    shards = split_dirichlet(train, NUM_TRAINERS, alpha=0.1, seed=9)
    config = ProtocolConfig(num_partitions=2, t_train=600.0,
                            t_sync=1200.0)
    config.train = TrainConfig(epochs=2, learning_rate=0.5, batch_size=32)
    factory = lambda: LogisticRegression(  # noqa: E731
        num_features=NUM_FEATURES, num_classes=4, seed=0
    )
    outcome = {}

    def experiment():
        gossip = GossipFLSession(config, factory, shards, fanout=2, seed=1)
        ours = FLSession(config, factory, shards,
                         network=NetworkProfile(num_ipfs_nodes=4))
        rows = []
        for round_index in range(ROUNDS):
            gossip.run_iteration()
            ours.run_iteration()
            gossip_accuracy = float(np.mean([
                accuracy(trainer.model, test) for trainer in gossip.trainers
            ]))
            rows.append([
                round_index,
                gossip_accuracy,
                accuracy(ours.model_of(0), test),
                gossip.model_divergence(),
            ])
        ours.consensus_params()  # ours: bit-identical models
        outcome["rows"] = rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = outcome["rows"]

    save_table("gossip_comparison", format_table(
        ["round", "gossip mean acc", "ours acc", "gossip divergence"],
        rows,
        title=f"Gossip (fanout 2) vs our protocol, {NUM_TRAINERS} "
              "trainers, Dirichlet(0.1) non-IID",
    ))

    for round_index, gossip_acc, ours_acc, divergence in rows:
        assert ours_acc >= gossip_acc  # FedAvg dominates round by round
        assert divergence > 0          # gossip never reaches consensus
    # The early-round gap is substantial on non-IID data.
    assert rows[0][2] - rows[0][1] > 0.1
