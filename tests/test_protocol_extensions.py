"""Tests for protocol extensions: delegated (trainer-side) verification,
straggler handling, and storage garbage collection."""

import numpy as np
import pytest

from repro.core import (
    AlterUpdateBehavior,
    FLSession,
    ProtocolConfig,
)
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile


def make_shards(num_trainers=4, seed=0):
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=seed)
    return split_iid(data, num_trainers, seed=seed)


def factory():
    return LogisticRegression(num_features=8, num_classes=2, seed=0)


# -- trainer-side verification ------------------------------------------------------


def test_trainer_verification_accepts_honest_update():
    config = ProtocolConfig(
        num_partitions=2, t_train=300.0, t_sync=600.0,
        verifiable=True, trainer_verification=True,
    )
    session = FLSession(config, factory, make_shards(),
                        network=NetworkProfile(num_ipfs_nodes=4))
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    assert all(trainer.rejected_updates == 0
               for trainer in session.trainers)


def test_trainer_verification_catches_poison_without_directory():
    """With directory verification delegated entirely to trainers (the
    Sec. VI direction), a poisoned update is rejected client-side."""
    config = ProtocolConfig(
        num_partitions=2, t_train=60.0, t_sync=120.0,
        verifiable=True,
        directory_verification=False,
        trainer_verification=True,
    )
    session = FLSession(
        config, factory, make_shards(),
        network=NetworkProfile(num_ipfs_nodes=4),
        behaviors={"aggregator-0": AlterUpdateBehavior(offset=1.0)},
    )
    metrics = session.run_iteration()
    # The directory served the poisoned update (it does not verify) ...
    assert metrics.update_registered_at
    # ... but every trainer rejected it and kept its model.
    assert metrics.trainers_completed == []
    assert any(trainer.rejected_updates > 0
               for trainer in session.trainers)
    assert any("trainer-rejected" in failure
               for failure in metrics.verification_failures)
    assert not session.directory.state.rejections  # directory did not check


def test_directory_verification_off_poison_lands_without_trainer_check():
    """The contrast case: both checks off, the poison installs."""
    config = ProtocolConfig(
        num_partitions=2, t_train=60.0, t_sync=120.0,
        verifiable=True,
        directory_verification=False,
        trainer_verification=False,
    )
    session = FLSession(
        config, factory, make_shards(),
        network=NetworkProfile(num_ipfs_nodes=4),
        behaviors={"aggregator-0": AlterUpdateBehavior(offset=1.0)},
    )
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4  # nobody noticed


# -- stragglers -------------------------------------------------------------------------


def test_slow_trainers_miss_round_fast_ones_proceed():
    """Partial asynchrony: a straggler subset misses t_train; the round
    completes with the punctual trainers' average."""
    shards = make_shards(num_trainers=4)
    config = ProtocolConfig(num_partitions=2, t_train=30.0, t_sync=200.0)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    session.trainers[0].local_train_seconds = 100.0  # past t_train
    session.trainers[1].local_train_seconds = 100.0
    metrics = session.run_iteration()
    completed = set(metrics.trainers_completed)
    assert completed == {"trainer-2", "trainer-3"}
    # The update averages exactly the two punctual trainers.
    from repro.core import decode_partition
    update = session.directory.state.entries_for(0, 0, "update")[0]
    node = next(node for node in session.nodes
                if update.cid in node.store)
    _, counter = decode_partition(node.load_object(update.cid))
    assert counter == 2.0


def test_straggler_rejoins_next_round():
    shards = make_shards(num_trainers=4)
    config = ProtocolConfig(num_partitions=2, t_train=30.0, t_sync=200.0)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    session.trainers[0].local_train_seconds = 100.0
    session.run_iteration()
    session.trainers[0].local_train_seconds = 0.0
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4


# -- garbage collection ---------------------------------------------------------------------


def test_collect_garbage_reclaims_old_iterations():
    shards = make_shards()
    config = ProtocolConfig(num_partitions=2, t_train=300.0, t_sync=600.0)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    session.run(rounds=3)
    before = session.storage_bytes
    reclaimed = session.collect_garbage(keep_iterations=1)
    assert reclaimed > 0
    assert session.storage_bytes == before - reclaimed
    # The last iteration's update objects are still retrievable.
    update = session.directory.state.entries_for(0, 2, "update")[0]
    assert any(update.cid in node.store for node in session.nodes)
    # Iteration 0's gradients are gone everywhere.
    for entry in session.directory.state.entries_for(0, 0, "gradient"):
        assert not any(entry.cid in node.store for node in session.nodes)


def test_collect_garbage_keeps_protocol_working():
    shards = make_shards()
    config = ProtocolConfig(num_partitions=2, t_train=300.0, t_sync=600.0)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    session.run_iteration()
    session.collect_garbage(keep_iterations=0)  # drop everything
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    session.consensus_params()


def test_collect_garbage_idempotent():
    shards = make_shards()
    config = ProtocolConfig(num_partitions=2, t_train=300.0, t_sync=600.0)
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    session.run(rounds=2)
    session.collect_garbage()
    assert session.collect_garbage() == 0.0
