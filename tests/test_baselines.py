"""Tests for the baseline systems, including cross-system
model-equivalence (all three architectures compute the same FedAvg), and
blockchain FL's closed-form round cost against our protocol's."""

import numpy as np
import pytest

from repro.analysis.delays import blockchain_round_cost
from repro.baselines import CentralizedSession, DirectIPLSSession
from repro.core import FLSession, ProtocolConfig
from repro.core.partition import encode_partition
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile, mbps


def make_shards(num_trainers=4, seed=0):
    data = make_classification(num_samples=200, num_features=6,
                               class_separation=3.0, seed=seed)
    return split_iid(data, num_trainers, seed=seed)


def factory():
    return LogisticRegression(num_features=6, num_classes=2, seed=0)


def config(**overrides):
    defaults = dict(num_partitions=2, t_train=300.0, t_sync=500.0)
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


# -- DirectIPLSSession -----------------------------------------------------------


def test_direct_ipls_completes_round():
    shards = make_shards()
    session = DirectIPLSSession(config(), factory, shards)
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    session.consensus_params()


def test_direct_ipls_multi_aggregator():
    shards = make_shards(num_trainers=8)
    session = DirectIPLSSession(config(aggregators_per_partition=2),
                                factory, shards)
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 8
    assert metrics.sync_delays
    session.consensus_params()


def test_direct_ipls_faster_than_indirect_naive():
    """Fig. 1's point: direct beats indirect-without-merge."""
    shards = make_shards(num_trainers=8)
    direct = DirectIPLSSession(config(), factory, shards,
                               bandwidth_mbps=10.0)
    indirect = FLSession(config(merge_and_download=False), factory, shards,
                         network=NetworkProfile(num_ipfs_nodes=8,
                                                bandwidth_mbps=10.0))
    direct_metrics = direct.run_iteration()
    indirect_metrics = indirect.run_iteration()
    assert (direct_metrics.total_aggregation_delay
            < indirect_metrics.total_aggregation_delay)


def test_direct_ipls_validation():
    with pytest.raises(ValueError):
        DirectIPLSSession(config(), factory, datasets=[])


# -- CentralizedSession -------------------------------------------------------------


def test_centralized_completes_round():
    shards = make_shards()
    session = CentralizedSession(config(), factory, shards)
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    assert metrics.bytes_received["aggregator-0"] > 0
    session.consensus_params()


def test_centralized_server_is_bandwidth_bottleneck():
    """All updates funnel through one NIC: slower than the partitioned
    decentralized design at equal per-host bandwidth."""
    shards = make_shards(num_trainers=8)
    central = CentralizedSession(config(), factory, shards,
                                 bandwidth_mbps=10.0)
    central_metrics = central.run_iteration()
    # The server received all 8 full models.
    model_bytes = (factory().num_params() + 1) * 8
    assert central_metrics.bytes_received["aggregator-0"] >= 8 * model_bytes


def test_centralized_validation():
    with pytest.raises(ValueError):
        CentralizedSession(config(), factory, datasets=[])


# -- blockchain FL (closed form) ---------------------------------------------------


def update_blob_bytes(model_factory):
    return len(encode_partition(model_factory().get_params()))


def test_bcfl_storage_blowup():
    """Every miner stores every update: total storage ~ miners x updates,
    beyond what our protocol's IPFS nodes hold after the same round."""
    shards = make_shards(num_trainers=4)
    ours = FLSession(config(), factory, shards,
                     network=NetworkProfile(num_ipfs_nodes=4))
    ours.run_iteration()
    _, _, storage = blockchain_round_cost(4, 4, update_blob_bytes(factory),
                                          mbps(10.0))
    update_bytes = (factory().num_params() + 1) * 8
    # 4 miners x (4 updates + 1 aggregate) payloads, plus headers.
    assert storage >= 4 * 4 * update_bytes
    assert storage > sum(node.store.total_bytes for node in ours.nodes)


def test_bcfl_moves_more_bytes_than_decentralized():
    # A larger model so payloads dominate the fixed per-message overheads.
    data = make_classification(num_samples=400, num_features=200,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 8, seed=0)

    def big_factory():
        return LogisticRegression(num_features=200, num_classes=2, seed=0)

    ours = FLSession(config(), big_factory, shards,
                     network=NetworkProfile(num_ipfs_nodes=4))
    ours.run_iteration()
    _, bcfl_bytes, _ = blockchain_round_cost(
        8, 4, update_blob_bytes(big_factory), mbps(10.0))
    assert bcfl_bytes > ours.testbed.network.bytes_delivered


# -- cross-system equivalence -----------------------------------------------------------


def test_all_architectures_compute_identical_model():
    """Centralized, direct IPLS and our protocol must produce the
    exact same FedAvg model from the same seeds — the strongest form of
    the paper's convergence-equivalence claim."""
    shards = make_shards(num_trainers=4, seed=9)
    cfg = config()
    ours = FLSession(cfg, factory, shards,
                     network=NetworkProfile(num_ipfs_nodes=4))
    direct = DirectIPLSSession(cfg, factory, shards)
    central = CentralizedSession(cfg, factory, shards)
    ours.run_iteration()
    direct.run_iteration()
    central.run_iteration()
    reference = ours.consensus_params()
    np.testing.assert_allclose(direct.consensus_params(), reference,
                               atol=1e-12)
    np.testing.assert_allclose(central.consensus_params(), reference,
                               atol=1e-12)


# -- the shared learning step ---------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda cfg, shards: DirectIPLSSession(cfg, factory, shards),
    lambda cfg, shards: CentralizedSession(cfg, factory, shards),
], ids=["direct", "centralized"])
def test_every_baseline_trainer_waits_out_its_local_training(build):
    """Each baseline trainer waits exactly as the protocol trainer does —
    its arrival jitter, then its local training time — so a delay
    comparison that sets either one is fair."""
    ends = {}
    for label, overrides in (("plain", {}),
                             ("training", {"local_train_seconds": 5.0}),
                             ("jitter", {"trainer_jitter": 4.0})):
        session = build(config(**overrides), make_shards())
        session.run_iteration()
        assert len(session.metrics.latest().trainers_completed) == 4
        ends[label] = session.sim.now
    assert ends["training"] - ends["plain"] == pytest.approx(5.0, abs=1e-9)
    latest_arrival = max(
        np.random.default_rng(config().seed + index).uniform(0.0, 4.0)
        for index in range(4))
    assert ends["jitter"] > latest_arrival
