"""Unit tests for Store and FilterStore."""

import pytest

from repro.sim import FilterStore, Simulator, Store
from repro.sim.core import SimulationError


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


# -- keyed getters ------------------------------------------------------------


def _keyed_store(sim):
    return FilterStore(sim, key=lambda item: item[0])


def test_keyed_getter_is_a_lookup_newer_predicates_are_not_asked():
    sim = Simulator()
    store = _keyed_store(sim)
    asked = []
    reply = store.get(key=7)
    store.get(lambda item: asked.append(item) or False)
    store.deposit((3, "other"))
    store.deposit((7, "reply"))
    sim.run()
    assert reply.value == (7, "reply")
    assert store.items == [(3, "other")]
    assert asked == [(3, "other")]  # the reply never reached the predicate


def test_older_unkeyed_getter_wins_a_keyed_item_newer_one_does_not():
    sim = Simulator()
    store = _keyed_store(sim)
    older = store.get()
    reply = store.get(key=1)
    newer = store.get()
    store.deposit((1, "first"))
    store.deposit((1, "second"))
    sim.run()
    assert older.value == (1, "first")
    assert reply.value == (1, "second")
    assert not newer.triggered


def test_keyed_getter_finds_a_buffered_item():
    sim = Simulator()
    store = _keyed_store(sim)
    store.deposit((2, "early"))
    store.deposit((5, "mine"))
    reply = store.get(key=5)
    sim.run()
    assert reply.value == (5, "mine")
    assert store.items == [(2, "early")]


def test_keyed_get_misuse_raises():
    sim = Simulator()
    store = _keyed_store(sim)
    store.get(key=1)
    with pytest.raises(SimulationError, match="already waits"):
        store.get(key=1)
    with pytest.raises(SimulationError, match="keyed store"):
        store.get(lambda item: True, key=2)
    with pytest.raises(SimulationError, match="keyed store"):
        FilterStore(sim).get(key=3)
