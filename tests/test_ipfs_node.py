"""Integration tests: IPFS nodes and clients over the emulated network."""

import numpy as np
import pytest

from repro.ipfs import (
    IntegrityError,
    MergeError,
    NodeOfflineError,
    NotFoundError,
    compute_cid,
)
from repro.net import mbps
from repro.obs.events import BlockFetched

from tests.util import make_ipfs_world, run_proc


def test_put_returns_cid_and_stores():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")

    def scenario():
        cid = yield from client.put(b"gradient-bytes", node="ipfs-0")
        return cid

    cid = run_proc(world, scenario())
    node = world.node(0)
    assert node.load_object(cid) == b"gradient-bytes"


def test_put_get_roundtrip():
    world = make_ipfs_world(num_nodes=2, client_names=("client-0", "client-1"))
    writer = world.client("client-0")
    reader = world.client("client-1")
    box = {}

    def write():
        box["cid"] = yield from writer.put(b"shared data", node="ipfs-0")

    def read(sim):
        yield sim.timeout(50.0)  # after the write completes
        data = yield from reader.get(box["cid"])
        box["data"] = data

    world.sim.process(write())
    world.sim.process(read(world.sim))
    world.sim.run()
    assert box["data"] == b"shared data"


def test_put_timing_matches_bandwidth():
    """1 MB through a 10 Mbps uplink takes ~0.8s (plus overhead bytes)."""
    world = make_ipfs_world(num_nodes=1, bandwidth_mbps=10.0)
    client = world.client("client-0")
    data = bytes(1_000_000)
    finish = {}

    def scenario(sim):
        yield from client.put(data, node="ipfs-0")
        finish["t"] = sim.now

    world.sim.process(scenario(world.sim))
    world.sim.run()
    expected = (1_000_000 + 256) / mbps(10.0) + 128 / mbps(10.0)
    assert finish["t"] == pytest.approx(expected, rel=1e-6)


def test_get_prefers_named_node():
    world = make_ipfs_world(num_nodes=3)
    client = world.client("client-0")
    data = b"replicated content"
    cid = world.node(0).store_object(data)
    world.node(1).store_object(data)

    def scenario():
        result = yield from client.get(cid, prefer_nodes=["ipfs-1"])
        return result

    fetched = []
    world.sim.bus.subscribe(fetched.append, BlockFetched)
    assert run_proc(world, scenario()) == data
    assert [event.node for event in fetched] == ["ipfs-1"]


def test_get_uses_dht_when_no_preference():
    world = make_ipfs_world(num_nodes=2)
    client = world.client("client-0")
    cid = world.node(1).store_object(b"dht-found")

    def scenario():
        return (yield from client.get(cid))

    assert run_proc(world, scenario()) == b"dht-found"


def test_get_unknown_cid_raises():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")
    ghost = compute_cid(b"never stored")

    def scenario():
        yield from client.get(ghost)

    with pytest.raises(NotFoundError):
        run_proc(world, scenario())


def test_get_detects_corruption_and_fails_over():
    """A corrupt provider is skipped; an honest replica serves the data."""
    world = make_ipfs_world(num_nodes=2)
    client = world.client("client-0")
    data = b"important gradient"
    cid = world.node(0).store_object(data)
    world.node(1).store_object(data)
    world.node(0).corrupt = True

    def scenario():
        return (yield from client.get(cid, prefer_nodes=["ipfs-0", "ipfs-1"]))

    assert run_proc(world, scenario()) == data


def test_get_corruption_with_no_honest_replica_raises():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")
    cid = world.node(0).store_object(b"data")
    world.node(0).corrupt = True

    def scenario():
        yield from client.get(cid)

    with pytest.raises(IntegrityError):
        run_proc(world, scenario())


def test_offline_node_times_out_put():
    world = make_ipfs_world(num_nodes=1, request_timeout=5.0)
    client = world.client("client-0")
    world.node(0).online = False

    def scenario():
        yield from client.put(b"data", node="ipfs-0")

    with pytest.raises(NodeOfflineError):
        run_proc(world, scenario())


def test_offline_provider_falls_back_to_live_one():
    world = make_ipfs_world(num_nodes=2, request_timeout=5.0)
    client = world.client("client-0")
    data = b"resilient data"
    cid = world.node(0).store_object(data)
    world.node(1).store_object(data)
    world.node(0).online = False

    def scenario():
        return (yield from client.get(cid, prefer_nodes=["ipfs-0", "ipfs-1"]))

    assert run_proc(world, scenario()) == data


def test_large_object_chunked_roundtrip():
    """A 1.3MB partition (the paper's size) survives chunking + transfer."""
    world = make_ipfs_world(num_nodes=1, bandwidth_mbps=100.0)
    client = world.client("client-0")
    data = np.random.default_rng(7).integers(
        0, 256, size=1_300_000, dtype=np.uint8
    ).tobytes()
    box = {}

    def scenario():
        cid = yield from client.put(data, node="ipfs-0")
        box["data"] = yield from client.get(cid, prefer_nodes=["ipfs-0"])

    world.sim.process(scenario())
    world.sim.run()
    assert box["data"] == data
    # 1.3MB at 256KiB chunks -> 5 leaves + manifest.
    assert len(world.node(0).store) == 6


def test_merge_and_download_sums_vectors():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")
    node = world.node(0)
    vectors = [np.arange(4, dtype=np.float64) * (i + 1) for i in range(3)]
    cids = [node.store_object(v.tobytes()) for v in vectors]
    box = {}

    def scenario():
        merged, count = yield from client.merge_and_download(cids, node="ipfs-0")
        box["merged"] = np.frombuffer(merged, dtype=np.float64)
        box["count"] = count

    world.sim.process(scenario())
    world.sim.run()
    np.testing.assert_allclose(box["merged"], np.arange(4) * 6.0)
    assert box["count"] == 3
    assert node.merges_served == 1


def test_merge_with_missing_cid_fails():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")
    node = world.node(0)
    cid = node.store_object(np.zeros(4).tobytes())
    ghost = compute_cid(b"ghost")

    def scenario():
        yield from client.merge_and_download([cid, ghost], node="ipfs-0")

    with pytest.raises(MergeError):
        run_proc(world, scenario())


def test_merge_download_cheaper_than_individual_gets():
    """The point of Sec. III-E: one merged blob vs N full downloads."""
    world = make_ipfs_world(num_nodes=1, bandwidth_mbps=10.0)
    client = world.client("client-0")
    node = world.node(0)
    vectors = [np.full(10_000, float(i)) for i in range(8)]
    cids = [node.store_object(v.tobytes()) for v in vectors]
    times = {}

    def merged_scenario(sim):
        yield from client.merge_and_download(cids, node="ipfs-0")
        times["merged"] = sim.now

    world.sim.process(merged_scenario(world.sim))
    world.sim.run()

    world2 = make_ipfs_world(num_nodes=1, bandwidth_mbps=10.0)
    client2 = world2.client("client-0")
    node2 = world2.node(0)
    cids2 = [node2.store_object(v.tobytes()) for v in vectors]

    def individual_scenario(sim):
        for cid in cids2:
            yield from client2.get(cid, prefer_nodes=["ipfs-0"])
        times["individual"] = sim.now

    world2.sim.process(individual_scenario(world2.sim))
    world2.sim.run()
    assert times["merged"] < times["individual"] / 4


def test_unpin_releases_object():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")
    node = world.node(0)
    box = {}

    def scenario(sim):
        cid = yield from client.put(b"ephemeral", node="ipfs-0")
        yield from client.unpin(cid, node="ipfs-0")
        yield sim.timeout(10.0)
        box["cid"] = cid

    world.sim.process(scenario(world.sim))
    world.sim.run()
    node.store.collect_garbage()
    assert box["cid"] not in node.store


def test_client_telemetry():
    world = make_ipfs_world(num_nodes=1)
    client = world.client("client-0")

    def scenario():
        cid = yield from client.put(b"xyz", node="ipfs-0")
        yield from client.get(cid, prefer_nodes=["ipfs-0"])

    world.sim.process(scenario())
    world.sim.run()
    assert client.bytes_downloaded > 0
