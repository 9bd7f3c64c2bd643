"""Tests for the replay adversary."""

import numpy as np

from repro.core import (
    FLSession,
    ProtocolConfig,
    ReplayUpdateBehavior,
    decode_partition,
    encode_partition,
)
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile


# -- replay adversary -----------------------------------------------------------------


def test_replay_behavior_mechanics():
    behavior = ReplayUpdateBehavior()
    first = encode_partition(np.array([1.0, 2.0]), 2.0)
    second = encode_partition(np.array([3.0, 4.0]), 2.0)
    # First round: nothing to replay, passes through.
    assert behavior.tamper_update(first) == first
    # Second round: replays the first.
    assert behavior.tamper_update(second) == first


def test_replay_attack_detected_in_second_round():
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    config = ProtocolConfig(num_partitions=2, t_train=60.0, t_sync=120.0,
                            verifiable=True)
    session = FLSession(
        config,
        lambda: LogisticRegression(num_features=8, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4),
        behaviors={"aggregator-0": ReplayUpdateBehavior()},
    )
    first = session.run_iteration()
    assert len(first.trainers_completed) == 4  # round 0 is genuine
    second = session.run_iteration()
    # Round 1's replayed update fails the fresh accumulated commitment.
    assert second.verification_failures
    assert second.trainers_completed == []


def test_replay_attack_succeeds_without_verification():
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    config = ProtocolConfig(num_partitions=2, t_train=60.0, t_sync=120.0)
    session = FLSession(
        config,
        lambda: LogisticRegression(num_features=8, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4),
        behaviors={"aggregator-0": ReplayUpdateBehavior()},
    )
    session.run_iteration()
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4  # stale update installed
