"""Unit tests for Store and FilterStore."""

import pytest

from repro.sim import FilterStore, Simulator, Store


# -- Store ------------------------------------------------------------------


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim, store):
        yield store.put("item")

    def consumer(sim, store):
        item = yield store.get()
        got.append(item)

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert got == ["item"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((sim.now, item))

    def producer(sim, store):
        yield sim.timeout(5.0)
        yield store.put("late")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [(5.0, "late")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim, store):
        for i in range(3):
            yield store.put(i)

    def consumer(sim, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer(sim, store):
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def consumer(sim, store):
        yield sim.timeout(10.0)
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert log == [("put-a", 0.0), ("got", "a", 10.0), ("put-b", 10.0)]


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    store.put("y")
    sim.run()
    assert len(store) == 2


def test_multiple_consumers_each_get_one():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store, name):
        item = yield store.get()
        got.append((name, item))

    sim.process(consumer(sim, store, "c1"))
    sim.process(consumer(sim, store, "c2"))
    store.put("first")
    store.put("second")
    sim.run()
    assert got == [("c1", "first"), ("c2", "second")]


# -- FilterStore --------------------------------------------------------------


def test_filter_store_selects_by_predicate():
    sim = Simulator()
    store = FilterStore(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get(lambda x: x % 2 == 0)
        got.append(item)

    sim.process(consumer(sim, store))
    store.put(1)
    store.put(3)
    store.put(4)
    sim.run()
    assert got == [4]
    assert store.items == [1, 3]


def test_filter_store_waits_for_matching_item():
    sim = Simulator()
    store = FilterStore(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get(lambda x: x == "target")
        got.append((sim.now, item))

    def producer(sim, store):
        yield store.put("noise")
        yield sim.timeout(3.0)
        yield store.put("target")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [(3.0, "target")]


def test_filter_store_none_predicate_is_fifo():
    sim = Simulator()
    store = FilterStore(sim)
    store.put("a")
    store.put("b")
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append(item)

    sim.process(consumer(sim, store))
    sim.run()
    assert got == ["a"]
