"""Tests for Kademlia content routing: XOR metric, k-buckets, iterative
lookups, charged provider discovery, and protocol integration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FLSession, ProtocolConfig
from repro.ipfs import (
    IPFSClient,
    IPFSNode,
    KademliaDHT,
    RoutingTable,
    bucket_index,
    compute_cid,
    node_key,
    xor_distance,
)
from repro.ipfs.kademlia import content_key
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import Network, NetworkProfile, Transport, mbps
from repro.sim import Simulator


# -- XOR metric ------------------------------------------------------------------


def test_xor_distance_metric_axioms():
    a, b, c = node_key("a"), node_key("b"), node_key("c")
    assert xor_distance(a, a) == 0
    assert xor_distance(a, b) == xor_distance(b, a)
    # XOR triangle equality variant: d(a,c) <= d(a,b) ^ ... holds as
    # d(a,c) = d(a,b) XOR d(b,c); check consistency.
    assert xor_distance(a, c) == xor_distance(a, b) ^ xor_distance(b, c)


@given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
def test_node_key_deterministic_and_distinct(a, b):
    assert node_key(a) == node_key(a)
    if a != b:
        assert node_key(a) != node_key(b)


def test_bucket_index_ranges():
    a = node_key("node-a")
    b = node_key("node-b")
    index = bucket_index(a, b)
    assert 0 <= index < 256
    with pytest.raises(ValueError):
        bucket_index(a, a)


@given(st.integers(min_value=0, max_value=2**256 - 1),
       st.integers(min_value=0, max_value=2**256 - 1))
def test_bucket_index_matches_distance_bitlength(a, b):
    if a == b:
        return
    assert bucket_index(a, b) == (a ^ b).bit_length() - 1


# -- routing table ------------------------------------------------------------------


def test_routing_table_insert_and_len():
    table = RoutingTable("me", k=4)
    assert table.insert("peer-0")
    assert table.insert("peer-0")  # idempotent
    assert not table.insert("me")  # never buckets itself
    assert len(table) == 1


def test_routing_table_bucket_capacity():
    table = RoutingTable("me", k=1)
    inserted = sum(
        1 for i in range(64) if table.insert(f"peer-{i}")
    )
    # With k=1 each bucket holds one entry; some inserts are refused.
    assert inserted < 64
    assert len(table) == inserted


def test_routing_table_closest_matches_bruteforce():
    table = RoutingTable("me", k=32)
    names = [f"peer-{i}" for i in range(24)]
    for name in names:
        table.insert(name)
    target = node_key("some-content")
    expected = sorted(names,
                      key=lambda n: xor_distance(node_key(n), target))[:5]
    assert table.closest(target, 5) == expected


def test_routing_table_remove():
    table = RoutingTable("me", k=8)
    table.insert("peer-0")
    table.remove("peer-0")
    table.remove("ghost")  # no-op
    assert len(table) == 0


# -- overlay ----------------------------------------------------------------------------


def make_overlay(num_nodes=16, with_network=False):
    sim = Simulator()
    network = None
    if with_network:
        network = Network(sim)
        for i in range(num_nodes):
            network.add_host(f"ipfs-{i}", up_bandwidth=mbps(10))
        network.add_host("client", up_bandwidth=mbps(10))
    dht = KademliaDHT(sim, network=network, k=4)
    for i in range(num_nodes):
        dht.join(f"ipfs-{i}")
    return sim, dht


def test_join_populates_tables():
    sim, dht = make_overlay(num_nodes=8)
    assert len(dht.members()) == 8
    for name in dht.members():
        assert len(dht.tables[name]) >= 1


def test_lookup_path_reaches_globally_closest_reachable():
    sim, dht = make_overlay(num_nodes=16)
    target = content_key(compute_cid(b"some content"))
    path = dht.lookup_path("ipfs-0", target)
    assert path[0] == "ipfs-0"
    # Distances decrease monotonically along the path.
    distances = [xor_distance(node_key(hop), target) for hop in path]
    assert distances == sorted(distances, reverse=True)
    # The endpoint is no further than the known neighbours of the start.
    assert len(path) <= 16


def test_lookup_path_logarithmic_hops():
    sim, dht = make_overlay(num_nodes=64)
    total_hops = 0
    for i in range(20):
        target = content_key(compute_cid(f"content-{i}".encode()))
        total_hops += len(dht.lookup_path("ipfs-0", target)) - 1
    # Kademlia expects ~log2(64) = 6 hops worst case; average well below.
    assert total_hops / 20 <= 8


def test_leave_removes_from_tables():
    sim, dht = make_overlay(num_nodes=8)
    dht.leave("ipfs-3")
    assert "ipfs-3" not in dht.members()
    for table in dht.tables.values():
        assert "ipfs-3" not in [
            name for bucket in table._buckets.values()
            for name, _ in bucket
        ]


def test_find_providers_charges_network_rpcs():
    sim, dht = make_overlay(num_nodes=16, with_network=True)
    cid = compute_cid(b"stored data")
    dht.provide(cid, "ipfs-5")
    found = {}

    def scenario():
        providers = yield from dht.find_providers(cid, querier="ipfs-0")
        found["providers"] = providers

    proc = sim.process(scenario())
    sim.run()
    assert found["providers"] == ["ipfs-5"]
    assert dht.rpcs > 0
    assert sim.now > 0  # route RPCs took network time


def test_provide_publishes_in_background():
    sim, dht = make_overlay(num_nodes=16, with_network=True)
    cid = compute_cid(b"published")
    dht.provide(cid, "ipfs-2")
    # Records are authoritative immediately (simulation compromise) ...
    assert dht.providers_snapshot(cid) == ["ipfs-2"]
    before = dht.rpcs
    sim.run()
    # ... while the publication traffic runs in the background.
    assert dht.rpcs >= before


def test_end_to_end_get_over_kademlia():
    sim = Simulator()
    network = Network(sim)
    for i in range(8):
        network.add_host(f"ipfs-{i}", up_bandwidth=mbps(10))
    network.add_host("client", up_bandwidth=mbps(10))
    transport = Transport(network)
    for i in range(8):
        transport.endpoint(f"ipfs-{i}")
    transport.endpoint("client")
    dht = KademliaDHT(sim, network=network, k=4)
    nodes = [IPFSNode(sim, transport, dht, f"ipfs-{i}") for i in range(8)]
    for i in range(8):
        dht.join(f"ipfs-{i}")
    client = IPFSClient("client", transport, dht)
    box = {}

    def scenario():
        cid = yield from client.put(b"kademlia-routed data", node="ipfs-3")
        box["data"] = yield from client.get(cid)

    proc = sim.process(scenario())
    sim.run_until(proc)
    assert box["data"] == b"kademlia-routed data"


def test_full_session_over_kademlia_dht():
    data = make_classification(num_samples=160, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    session = FLSession(
        ProtocolConfig(num_partitions=2, t_train=300, t_sync=600),
        lambda: LogisticRegression(num_features=8, seed=0),
        shards,
        network=NetworkProfile(num_ipfs_nodes=8, dht_mode="kademlia"),
    )
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    session.consensus_params()
    assert session.dht.rpcs > 0  # routing traffic actually flowed


def test_session_rejects_unknown_dht_mode():
    data = make_classification(num_samples=80, num_features=4, seed=0)
    shards = split_iid(data, 2, seed=0)
    with pytest.raises(ValueError):
        FLSession(
            ProtocolConfig(num_partitions=1, t_train=10, t_sync=20),
            lambda: LogisticRegression(num_features=4, seed=0),
            shards, network=NetworkProfile(dht_mode="chord"),
        )
