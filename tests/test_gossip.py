"""Tests for the gossip FL baseline."""

import numpy as np
import pytest

from repro.baselines.gossip import GossipFLSession
from repro.core import ProtocolConfig
from repro.ml import (
    LogisticRegression,
    accuracy,
    make_classification,
    split_dirichlet,
    split_iid,
)


def factory():
    return LogisticRegression(num_features=8, num_classes=2, seed=0)


def config():
    return ProtocolConfig(num_partitions=2, t_train=300.0, t_sync=600.0)


def make_shards(num_trainers=6, seed=0):
    data = make_classification(num_samples=300, num_features=8,
                               class_separation=3.0, seed=seed)
    return split_iid(data, num_trainers, seed=seed)


def test_gossip_round_completes():
    session = GossipFLSession(config(), factory, make_shards(), fanout=2)
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 6
    assert all(value > 0 for value in metrics.bytes_received.values())


def test_gossip_models_diverge_but_learn():
    session = GossipFLSession(config(), factory, make_shards(), fanout=2)
    session.run(rounds=3)
    assert session.model_divergence() > 0  # no consensus, by design
    data = make_classification(num_samples=300, num_features=8,
                               class_separation=3.0, seed=0)
    accuracies = [accuracy(trainer.model, data)
                  for trainer in session.trainers]
    assert np.mean(accuracies) > 0.8  # it does learn


def test_gossip_divergence_shrinks_with_full_fanout():
    shards = make_shards(num_trainers=4)
    sparse = GossipFLSession(config(), factory, shards, fanout=1, seed=3)
    dense = GossipFLSession(config(), factory, shards, fanout=3, seed=3)
    sparse.run(rounds=3)
    dense.run(rounds=3)
    assert dense.model_divergence() < sparse.model_divergence()


def test_gossip_bytes_scale_with_fanout():
    shards = make_shards(num_trainers=6)
    low = GossipFLSession(config(), factory, shards, fanout=1, seed=1)
    high = GossipFLSession(config(), factory, shards, fanout=4, seed=1)
    low_metrics = low.run_iteration()
    high_metrics = high.run_iteration()
    assert (sum(high_metrics.bytes_received.values())
            > 2 * sum(low_metrics.bytes_received.values()))


def test_gossip_fanout_capped_at_population():
    session = GossipFLSession(config(), factory, make_shards(3), fanout=99)
    assert session.fanout == 2
    session.run_iteration()


def test_gossip_validation():
    with pytest.raises(ValueError):
        GossipFLSession(config(), factory, [], fanout=2)
    with pytest.raises(ValueError):
        GossipFLSession(config(), factory, make_shards(), fanout=0)


def test_gossip_reproducible_given_seed():
    shards = make_shards(num_trainers=4)
    a = GossipFLSession(config(), factory, shards, fanout=2, seed=7)
    b = GossipFLSession(config(), factory, shards, fanout=2, seed=7)
    a.run(rounds=2)
    b.run(rounds=2)
    np.testing.assert_allclose(a.mean_params(), b.mean_params())
    assert a.model_divergence() == pytest.approx(b.model_divergence())
