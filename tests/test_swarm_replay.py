"""Tests for swarm (striped) block retrieval and the replay adversary."""

import numpy as np
import pytest

from repro.core import (
    FLSession,
    ProtocolConfig,
    ReplayUpdateBehavior,
    decode_partition,
    encode_partition,
)
from repro.ipfs import NotFoundError, ReplicationCluster, compute_cid
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile

from tests.util import make_ipfs_world


LARGE = np.random.default_rng(0).integers(
    0, 256, size=1_000_000, dtype=np.uint8
).tobytes()


# -- get_block ---------------------------------------------------------------------


def test_get_block_roundtrip():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")
    node = world.node(0)
    from repro.ipfs import Block
    block = Block(b"one raw block")
    node.store.put(block)
    box = {}

    def scenario():
        box["data"] = yield from client.get_block(block.cid, "ipfs-0")

    world.sim.process(scenario())
    world.sim.run()
    assert box["data"] == b"one raw block"


def test_get_block_missing_returns_none():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")
    box = {}

    def scenario():
        box["data"] = yield from client.get_block(
            compute_cid(b"ghost"), "ipfs-0"
        )

    world.sim.process(scenario())
    world.sim.run()
    assert box["data"] is None


def test_get_block_corruption_returns_none():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")
    node = world.node(0)
    from repro.ipfs import Block
    block = Block(b"target")
    node.store.put(block)
    node.corrupt = True
    box = {}

    def scenario():
        box["data"] = yield from client.get_block(block.cid, "ipfs-0")

    world.sim.process(scenario())
    world.sim.run()
    assert box["data"] is None


# -- get_striped --------------------------------------------------------------------


def test_striped_roundtrip_single_provider():
    world = make_ipfs_world(num_nodes=1, bandwidth_mbps=100.0)
    client = world.client("client-0")
    cid = world.node(0).store_object(LARGE)
    box = {}

    def scenario():
        box["data"] = yield from client.get_striped(
            cid, prefer_nodes=["ipfs-0"]
        )

    world.sim.process(scenario())
    world.sim.run()
    assert box["data"] == LARGE


def test_striped_bare_block():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")
    from repro.ipfs import Block
    block = Block(b"not a manifest, just bytes")
    world.node(0).store.put(block)
    world.dht.provide(block.cid, "ipfs-0")
    box = {}

    def scenario():
        box["data"] = yield from client.get_striped(block.cid)

    world.sim.process(scenario())
    world.sim.run()
    assert box["data"] == b"not a manifest, just bytes"


def test_striped_faster_with_two_providers():
    """Striping across two replicas roughly halves the download time
    when the provider uplinks (not the client downlink) are the
    bottleneck — each provider carries half the leaves."""
    times = {}
    for replicas in (1, 2):
        world = make_ipfs_world(num_nodes=2, bandwidth_mbps=10.0)
        # Fat client pipe: the 10 Mbps provider uplinks are the limit.
        fat = world.network.host("client-0")
        fat.uplink.capacity = fat.downlink.capacity = 1e9
        client = world.client("client-0")
        cid = world.node(0).store_object(LARGE)
        if replicas == 2:
            world.node(1).store_object(LARGE)

        def scenario(sim=world.sim, client=client, cid=cid,
                     replicas=replicas):
            yield from client.get_striped(cid)
            times[replicas] = sim.now

        world.sim.process(scenario())
        world.sim.run()
    assert times[2] < 0.7 * times[1]


def test_striped_survives_one_corrupt_provider():
    world = make_ipfs_world(num_nodes=2, bandwidth_mbps=100.0)
    client = world.client("client-0")
    cid = world.node(0).store_object(LARGE)
    world.node(1).store_object(LARGE)
    world.node(0).corrupt = True
    box = {}

    def scenario():
        box["data"] = yield from client.get_striped(cid)

    world.sim.process(scenario())
    world.sim.run()
    assert box["data"] == LARGE


def test_striped_unknown_cid_raises():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")

    def scenario():
        yield from client.get_striped(compute_cid(b"nothing"))

    proc = world.sim.process(scenario())
    with pytest.raises(NotFoundError):
        world.sim.run()


def test_striped_after_replication():
    """Cluster replication + striping compose: replicas created in the
    background later serve stripes."""
    world = make_ipfs_world(num_nodes=3, bandwidth_mbps=100.0)
    ReplicationCluster(world.sim, world.nodes, replication_factor=2)
    client = world.client("client-0")
    box = {}

    def scenario(sim):
        cid = yield from client.put(LARGE, node="ipfs-0")
        yield sim.timeout(60.0)  # replication completes
        box["data"] = yield from client.get_striped(cid)

    world.sim.process(scenario(world.sim))
    world.sim.run()
    assert box["data"] == LARGE


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
