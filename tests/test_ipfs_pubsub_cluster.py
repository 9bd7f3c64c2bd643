"""Tests for pub/sub, replication cluster, and the merge reduction."""

import numpy as np
import pytest

from repro.ipfs import (
    MergeError,
    ReplicationCluster,
    sum_f64,
)
from repro.ipfs.cid import compute_cid
from repro.ipfs.cluster import rendezvous_rank

from tests.util import make_ipfs_world


# -- PubSub --------------------------------------------------------------------


def test_publish_reaches_all_subscribers():
    world = make_ipfs_world(
        num_nodes=1, client_names=("alice", "bob", "carol")
    )
    pubsub = world.pubsub
    sub_bob = pubsub.subscribe("updates", "bob")
    sub_carol = pubsub.subscribe("updates", "carol")
    got = {}

    def listener(name, subscription):
        message = yield subscription.get()
        got[name] = message.payload

    def publisher():
        yield pubsub.publish("updates", "alice", payload="hash123", size=64)

    world.sim.process(listener("bob", sub_bob))
    world.sim.process(listener("carol", sub_carol))
    world.sim.process(publisher())
    world.sim.run()
    assert got == {"bob": "hash123", "carol": "hash123"}


def test_publish_without_subscribers_is_noop():
    world = make_ipfs_world(num_nodes=1)
    done = world.pubsub.publish("empty-topic", "client-0", payload="x")
    world.sim.run()
    assert done.triggered


def test_unsubscribe_stops_delivery():
    world = make_ipfs_world(num_nodes=1, client_names=("alice", "bob"))
    pubsub = world.pubsub
    subscription = pubsub.subscribe("topic", "bob")
    subscription.cancel()
    pubsub.publish("topic", "alice", payload="after-cancel")
    world.sim.run()
    assert len(subscription.queue) == 0
    assert pubsub.peers("topic") == 0


def test_sender_receives_own_message_if_subscribed():
    world = make_ipfs_world(num_nodes=1, client_names=("alice",))
    pubsub = world.pubsub
    subscription = pubsub.subscribe("topic", "alice")
    got = []

    def listener(subscription):
        message = yield subscription.get()
        got.append(message.sender)

    world.sim.process(listener(subscription))
    pubsub.publish("topic", "alice", payload="self")
    world.sim.run()
    assert got == ["alice"]


def test_publish_charges_network():
    world = make_ipfs_world(
        num_nodes=1, client_names=("alice", "bob"), bandwidth_mbps=10.0
    )
    pubsub = world.pubsub
    subscription = pubsub.subscribe("topic", "bob")
    arrival = {}

    def listener(sim, subscription):
        message = yield subscription.get()
        arrival["t"] = sim.now

    world.sim.process(listener(world.sim, subscription))
    pubsub.publish("topic", "alice", payload=b"x", size=1_000_000)
    world.sim.run()
    assert arrival["t"] > 0.7  # ~0.8s for 1MB at 10Mbps


# -- rendezvous hashing / cluster --------------------------------------------------


def test_rendezvous_rank_is_deterministic():
    cid = compute_cid(b"object")
    names = [f"node-{i}" for i in range(5)]
    assert rendezvous_rank(cid, names) == rendezvous_rank(cid, names)


def test_rendezvous_rank_is_permutation():
    cid = compute_cid(b"object")
    names = [f"node-{i}" for i in range(5)]
    assert sorted(rendezvous_rank(cid, names)) == names


def test_rendezvous_distributes_uniformly():
    """Across many CIDs, each node should win a fair share of placements."""
    names = [f"node-{i}" for i in range(4)]
    wins = {name: 0 for name in names}
    for i in range(400):
        top = rendezvous_rank(compute_cid(str(i).encode()), names)[0]
        wins[top] += 1
    for count in wins.values():
        assert 50 <= count <= 150  # fair within generous bounds


def test_cluster_replicates_puts():
    world = make_ipfs_world(num_nodes=3, bandwidth_mbps=100.0)
    cluster = ReplicationCluster(world.sim, world.nodes, replication_factor=2)
    client = world.client("client-0")
    box = {}

    def scenario(sim):
        cid = yield from client.put(b"replicate me", node="ipfs-0")
        yield sim.timeout(60.0)  # let background replication finish
        box["cid"] = cid

    world.sim.process(scenario(world.sim))
    world.sim.run()
    holders = [node.name for node in cluster.nodes
               if node.online and box["cid"] in node.store]
    assert "ipfs-0" in holders  # origin keeps it
    assert len(holders) >= 2


def test_cluster_validation():
    world = make_ipfs_world(num_nodes=1)
    with pytest.raises(ValueError):
        ReplicationCluster(world.sim, world.nodes, replication_factor=0)


def test_cluster_skips_offline_targets():
    world = make_ipfs_world(num_nodes=3, bandwidth_mbps=100.0)
    cluster = ReplicationCluster(world.sim, world.nodes, replication_factor=3)
    world.node(1).online = False
    world.node(2).online = False
    client = world.client("client-0")

    def scenario(sim):
        yield from client.put(b"data", node="ipfs-0")
        yield sim.timeout(60.0)

    world.sim.process(scenario(world.sim))
    world.sim.run()  # must not hang or crash


# -- the merge reduction ------------------------------------------------------------


def test_sum_f64_adds_vectors():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([10.0, 20.0, 30.0])
    merged = np.frombuffer(sum_f64([a.tobytes(), b.tobytes()]), dtype=np.float64)
    np.testing.assert_allclose(merged, [11.0, 22.0, 33.0])


def test_sum_f64_rejects_empty():
    with pytest.raises(MergeError):
        sum_f64([])


def test_sum_f64_rejects_length_mismatch():
    with pytest.raises(MergeError, match="mismatch"):
        sum_f64([np.zeros(3).tobytes(), np.zeros(4).tobytes()])


def test_sum_f64_rejects_non_f64():
    with pytest.raises(MergeError):
        sum_f64([b"abc"])  # not a multiple of 8
