"""Failure-injection tests: node deaths, slow trainers, churn + replication.

The paper's availability discussion (Sec. VI) argues gradients need only
short-lived availability, achievable by replicating across a few nodes
with rendezvous placement.  These tests exercise the protocol's behaviour
when storage nodes die and deadlines pass.
"""

import numpy as np
import pytest

from repro.core import FLSession, ProtocolConfig
from repro.ipfs import IPFSClient, IPFSError
from repro.ipfs.errors import NotFoundError
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile


def make_shards(num_trainers=4, seed=0):
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=seed)
    return split_iid(data, num_trainers, seed=seed)


def factory():
    return LogisticRegression(num_features=8, num_classes=2, seed=0)


def test_dead_upload_node_falls_back_to_live_nodes():
    """Without merge-and-download the upload target is arbitrary, so a
    trainer whose assigned node is down retries on a live one and the
    whole round completes."""
    shards = make_shards(num_trainers=4)
    config = ProtocolConfig(num_partitions=2, t_train=400.0, t_sync=800.0)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4,
                                               bandwidth_mbps=10.0))
    dead_node = session.nodes[0]
    dead_node.online = False
    victims = {
        trainer for (trainer, _), node in
        session.assignment.upload_node.items() if node == dead_node.name
    }
    assert victims  # someone was assigned to the dead node
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    session.consensus_params()


def test_all_trainers_too_slow_round_times_out_cleanly():
    """local training longer than t_train: everyone aborts, nothing is
    registered, no update is produced, and the session doesn't crash."""
    shards = make_shards()
    config = ProtocolConfig(num_partitions=2, t_train=10.0, t_sync=30.0,
                            local_train_seconds=20.0)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    metrics = session.run_iteration()
    assert metrics.trainers_completed == []
    assert metrics.update_registered_at == {}
    assert metrics.first_gradient_at is None


def test_next_iteration_recovers_after_failed_round():
    shards = make_shards()
    config = ProtocolConfig(num_partitions=2, t_train=10.0, t_sync=30.0,
                            local_train_seconds=20.0)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    session.run_iteration()  # fails: everyone too slow
    for trainer in session.trainers:
        trainer.local_train_seconds = 0.0
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    session.consensus_params()


def test_replication_keeps_gradients_available_after_origin_death():
    """With the rendezvous replication cluster, killing the origin node
    after a round still leaves every gradient retrievable."""
    shards = make_shards()
    config = ProtocolConfig(num_partitions=2, t_train=200.0, t_sync=400.0)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4,
                                               replication_factor=2))
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4

    gradient_cids = [
        entry.cid
        for partition in range(2)
        for entry in session.directory.state.entries_for(
            partition, 0, "gradient")
    ]
    assert len(gradient_cids) == 8

    # Kill the origin of every object; replicas must still serve them.
    for node in session.nodes[:2]:
        node.online = False
    fetcher = IPFSClient("trainer-0", session.testbed.transport,
                         session.dht)
    fetcher.request_timeout = 5.0
    recovered = []

    def fetch_all():
        for cid in gradient_cids:
            try:
                blob = yield from fetcher.get(cid)
            except IPFSError:
                continue
            recovered.append(blob)

    proc = session.sim.process(fetch_all())
    session.sim.run_until(proc)
    live_replicas = sum(
        1 for cid in gradient_cids
        if any(node.online and cid in node.store
               for node in session.nodes)
    )
    # Everything with a live replica must have been retrieved.
    assert len(recovered) == live_replicas
    # And replication must have actually placed extra copies.
    assert session.cluster.replications > 0


def test_merge_mode_with_dead_provider_partial_round():
    """Merge-and-download with one provider down: the trainers uploading
    there miss the round; the merged aggregate covers the rest."""
    shards = make_shards(num_trainers=8)
    config = ProtocolConfig(num_partitions=2, t_train=200.0, t_sync=400.0,
                            merge_and_download=True,
                            providers_per_aggregator=2)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    # Kill one provider of aggregator-0.
    dead_name = session.assignment.providers_of["aggregator-0"][0]
    next(node for node in session.nodes if node.name == dead_name) \
        .online = False
    metrics = session.run_iteration()
    survivors = set(metrics.trainers_completed)
    victims = {
        trainer for (trainer, _), node in
        session.assignment.upload_node.items() if node == dead_name
    }
    assert survivors
    assert survivors.isdisjoint(victims)


def test_mid_iteration_node_death_times_out_gracefully():
    """A node dying mid-round (after uploads began) must not wedge the
    session: affected requests time out and the round ends."""
    shards = make_shards()
    config = ProtocolConfig(num_partitions=2, t_train=200.0, t_sync=400.0)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4))

    def killer():
        yield session.sim.timeout(0.05)  # mid-upload for some trainer
        session.nodes[1].online = False

    session.sim.process(killer())
    metrics = session.run_iteration()  # must terminate
    assert metrics.finished_at > metrics.started_at
    # The session can still make progress afterwards with the live nodes.
    session.nodes[1].online = True
    metrics2 = session.run_iteration()
    assert len(metrics2.trainers_completed) == 4
