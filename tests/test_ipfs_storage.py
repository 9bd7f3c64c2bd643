"""Unit tests for Blockstore and DHT."""

import pytest

from repro.ipfs import DHT
from repro.ipfs.block import Block
from repro.ipfs.blockstore import Blockstore
from repro.ipfs.cid import compute_cid
from repro.obs.events import DhtLookup
from repro.sim import Simulator


# -- Blockstore ----------------------------------------------------------------


def test_put_and_get():
    store = Blockstore()
    block = Block(b"data")
    cid = store.put(block)
    assert store.get(cid) is block
    assert cid in store
    assert cid in store
    assert len(store) == 1


def test_get_missing_returns_none():
    store = Blockstore()
    assert store.get(compute_cid(b"ghost")) is None


def test_put_idempotent():
    store = Blockstore()
    block = Block(b"data")
    store.put(block)
    store.put(Block(b"data"))
    assert len(store) == 1
    assert store.total_bytes == 4


def test_pin_unpin_gc():
    store = Blockstore()
    pinned = Block(b"keep me")
    loose = Block(b"drop me")
    store.put(pinned)
    store.put(loose)
    store.unpin(loose.cid)
    removed = store.collect_garbage()
    assert removed == [loose.cid]
    assert pinned.cid in store
    assert loose.cid not in store
    assert store.total_bytes == pinned.size


def test_unpin_then_gc():
    store = Blockstore()
    block = Block(b"temporary")
    store.put(block)
    store.unpin(block.cid)
    store.collect_garbage()
    assert block.cid not in store


def test_put_existing_with_pin_pins_it():
    store = Blockstore()
    block = Block(b"data")
    store.put(block)
    store.unpin(block.cid)
    store.put(block)
    assert store.collect_garbage() == []
    assert block.cid in store


def test_cids_iteration():
    store = Blockstore()
    blocks = [Block(bytes([i])) for i in range(3)]
    for block in blocks:
        store.put(block)
    assert set(store.cids()) == {block.cid for block in blocks}


# -- DHT -------------------------------------------------------------------------


def test_provide_and_snapshot():
    sim = Simulator()
    dht = DHT(sim, lookup_delay=0.0)
    cid = compute_cid(b"content")
    dht.provide(cid, "node-a")
    dht.provide(cid, "node-b")
    assert dht.providers_snapshot(cid) == ["node-a", "node-b"]


def test_find_providers_charges_delay():
    sim = Simulator()
    dht = DHT(sim, lookup_delay=0.25)
    cid = compute_cid(b"content")
    dht.provide(cid, "node-a")
    result = {}

    def proc(sim, dht):
        providers = yield from dht.find_providers(cid)
        result["providers"] = providers
        result["time"] = sim.now

    sim.process(proc(sim, dht))
    sim.run()
    assert result["providers"] == ["node-a"]
    assert result["time"] == pytest.approx(0.25)


def test_find_providers_limit():
    sim = Simulator()
    dht = DHT(sim, lookup_delay=0.0)
    cid = compute_cid(b"content")
    for i in range(10):
        dht.provide(cid, f"node-{i}")
    result = {}

    def proc(sim, dht):
        providers = yield from dht.find_providers(cid, limit=3)
        result["providers"] = providers

    sim.process(proc(sim, dht))
    sim.run()
    assert len(result["providers"]) == 3


def test_unprovide():
    sim = Simulator()
    dht = DHT(sim)
    cid = compute_cid(b"content")
    dht.provide(cid, "node-a")
    dht.unprovide(cid, "node-a")
    assert dht.providers_snapshot(cid) == []
    dht.unprovide(cid, "node-a")  # idempotent


def test_negative_lookup_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        DHT(sim, lookup_delay=-0.1)


def test_lookup_telemetry():
    sim = Simulator()
    dht = DHT(sim, lookup_delay=0.0)
    cid = compute_cid(b"content")
    dht.provide(cid, "node-a")

    def proc(sim, dht):
        yield from dht.find_providers(cid)
        yield from dht.find_providers(cid)

    lookups = []
    sim.bus.subscribe(lookups.append, DhtLookup)
    sim.process(proc(sim, dht))
    sim.run()
    assert [event.providers for event in lookups] == [1, 1]
