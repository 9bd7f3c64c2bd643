"""Unit tests for Blockstore and DHT."""

import math

import pytest

from repro.ipfs import Block, Blockstore, DHT, compute_cid
from repro.sim import Simulator


# -- Blockstore ----------------------------------------------------------------


def test_put_and_get():
    store = Blockstore()
    block = Block(b"data")
    cid = store.put(block)
    assert store.get(cid) is block
    assert store.has(cid)
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


def test_capacity_enforced():
    store = Blockstore(capacity_bytes=10)
    store.put(Block(b"12345678"))
    with pytest.raises(IOError, match="full"):
        store.put(Block(b"abcdefgh"))


def test_capacity_validation():
    with pytest.raises(ValueError):
        Blockstore(capacity_bytes=0)


def test_pin_unpin_gc():
    store = Blockstore()
    pinned = Block(b"keep me")
    loose = Block(b"drop me")
    store.put(pinned, pin=True)
    store.put(loose, pin=False)
    removed = store.collect_garbage()
    assert removed == [loose.cid]
    assert store.has(pinned.cid)
    assert not store.has(loose.cid)
    assert store.total_bytes == pinned.size


def test_unpin_then_gc():
    store = Blockstore()
    block = Block(b"temporary")
    store.put(block, pin=True)
    store.unpin(block.cid)
    store.collect_garbage()
    assert not store.has(block.cid)


def test_pin_unknown_raises():
    store = Blockstore()
    with pytest.raises(KeyError):
        store.pin(compute_cid(b"nope"))


def test_put_existing_with_pin_pins_it():
    store = Blockstore()
    block = Block(b"data")
    store.put(block, pin=False)
    store.put(block, pin=True)
    assert store.collect_garbage() == []
    assert store.has(block.cid)


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


def test_record_expiry():
    sim = Simulator()
    dht = DHT(sim, record_ttl=10.0)
    cid = compute_cid(b"content")
    dht.provide(cid, "node-a")

    def advance(sim):
        yield sim.timeout(11.0)

    sim.process(advance(sim))
    sim.run()
    assert dht.providers_snapshot(cid) == []


def test_reprovide_refreshes_expiry():
    sim = Simulator()
    dht = DHT(sim, record_ttl=10.0)
    cid = compute_cid(b"content")
    dht.provide(cid, "node-a")

    def advance(sim, dht):
        yield sim.timeout(8.0)
        dht.provide(cid, "node-a")
        yield sim.timeout(8.0)

    sim.process(advance(sim, dht))
    sim.run()
    assert dht.providers_snapshot(cid) == ["node-a"]


def test_infinite_ttl_by_default():
    sim = Simulator()
    dht = DHT(sim)
    assert math.isinf(dht.record_ttl)


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

    sim.process(proc(sim, dht))
    sim.run()
    assert dht.lookups == 2
    assert dht.provides == 1
