"""Tests for heterogeneous-bandwidth topologies."""

import pytest

from repro.core import FLSession, ProtocolConfig
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile, build_testbed, mbps


# -- heterogeneous bandwidths ------------------------------------------------------------


def test_testbed_per_trainer_bandwidths():
    testbed = build_testbed(num_trainers=3, num_ipfs_nodes=1,
                            bandwidth_mbps=10.0,
                            trainer_bandwidths_mbps=[1.0, 10.0, 100.0])
    assert testbed.network.host("trainer-0").up_bandwidth == mbps(1.0)
    assert testbed.network.host("trainer-2").up_bandwidth == mbps(100.0)
    # Non-trainer hosts keep the base bandwidth.
    assert testbed.network.host("ipfs-0").up_bandwidth == mbps(10.0)


def test_testbed_bandwidth_list_length_checked():
    with pytest.raises(ValueError):
        build_testbed(num_trainers=3,
                      trainer_bandwidths_mbps=[1.0, 2.0])


def test_slow_trainer_stretches_upload_window():
    data = make_classification(num_samples=160, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    config = ProtocolConfig(num_partitions=2, t_train=300.0, t_sync=600.0)

    uniform = FLSession(
        config, lambda: LogisticRegression(num_features=8, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
    )
    skewed = FLSession(
        config, lambda: LogisticRegression(num_features=8, seed=0),
        shards,
        network=NetworkProfile(
            num_ipfs_nodes=4, bandwidth_mbps=10.0,
            trainer_bandwidths_mbps=[0.5, 10.0, 10.0, 10.0],
        ),
    )
    uniform_metrics = uniform.run_iteration()
    skewed_metrics = skewed.run_iteration()
    assert len(skewed_metrics.trainers_completed) == 4
    # The slow trainer's upload dominates its own delay and the round.
    assert (skewed_metrics.upload_delays["trainer-0"]
            > 10 * uniform_metrics.upload_delays["trainer-0"])
    assert (skewed_metrics.collection_time
            > uniform_metrics.collection_time)
    skewed.consensus_params()
