"""Waitable synchronization primitives for the simulation kernel.

These mirror the classic discrete-event primitives:

- :class:`Store` — an unbounded FIFO buffer of Python objects, with
  blocking ``get``.
- :class:`FilterStore` — a store whose ``get`` may select by predicate
  or, found by lookup instead of a scan, by key.

Blocking operations return :class:`~repro.sim.core.Event` objects to be
yielded from a process.  A new item goes to the oldest waiting getter
that accepts it, a new getter takes the oldest buffered item it accepts;
so no waiting getter accepts a buffered item.  A keyed getter handed a new
item is dispatched in place: it only hands a reply on.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from .core import Event, Simulator, SimulationError


class _StoreGet(Event):
    __slots__ = ("predicate", "key", "arrival")

    def __init__(self, store: "Store",
                 predicate: Optional[Callable[[Any], bool]] = None,
                 key: Any = None):
        super().__init__(store.sim)
        self.predicate = predicate
        self.key = key
        self.arrival = store._arrivals
        store._arrivals += 1


class Store:
    """FIFO buffer with non-blocking put and blocking get."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: List[Any] = []
        self._get_waiters: Deque[_StoreGet] = deque()  # un-keyed
        self._keyed: Dict[Any, _StoreGet] = {}
        self._key: Optional[Callable[[Any], Any]] = None
        self._arrivals = 0

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Store ``item``; the returned event fires once it is buffered."""
        event = self.sim.event().succeed()
        self._offer(item)
        return event

    def deposit(self, item: Any) -> None:
        """:meth:`put` minus the event: for a producer that never waits
        to hear that ``item`` is buffered."""
        self._offer(item)

    def get(self) -> Event:
        """Retrieve the oldest item; the event's value is the item."""
        return self._wait(_StoreGet(self))

    def _match(self, get_event: _StoreGet) -> Optional[int]:
        """Index of the buffered item satisfying ``get_event``, or None."""
        key, predicate = get_event.key, get_event.predicate
        for index, item in enumerate(self.items):
            if (self._key(item) == key if key is not None
                    else predicate is None or predicate(item)):
                return index
        return None

    def _wait(self, get_event: _StoreGet) -> Event:
        """Serve a new getter from the buffer, or queue it."""
        index = self._match(get_event)
        if index is not None:
            get_event.succeed(self.items.pop(index))
        elif get_event.key is None:
            self._get_waiters.append(get_event)
        elif self._keyed.setdefault(get_event.key, get_event) \
                is not get_event:
            raise SimulationError(
                f"a getter already waits on key {get_event.key!r}")
        return get_event

    def _offer(self, item: Any) -> None:
        """Hand a new ``item`` to the oldest getter that accepts it, or
        buffer it: the getter on its key, unless an un-keyed getter that
        arrived before that one accepts it."""
        keyed = self._keyed.get(self._key(item)) if self._keyed else None
        for index, get_event in enumerate(self._get_waiters):
            if keyed is not None and get_event.arrival > keyed.arrival:
                break
            if get_event.predicate is None or get_event.predicate(item):
                del self._get_waiters[index]
                get_event.succeed(item)
                return
        if keyed is not None:
            del self._keyed[keyed.key]
            self.sim.dispatch_in_place(keyed, item)  # a reply's getter
        else:
            self.items.append(item)


class FilterStore(Store):
    """A store whose consumers may select items by predicate or by key.

    ``key`` maps an item to its key.  ``get(key=k)`` waits for the item
    keyed ``k`` (one getter per key), found by a dict lookup where a
    predicate getter is asked of every new item.
    """

    def __init__(self, sim: Simulator,
                 key: Optional[Callable[[Any], Any]] = None):
        super().__init__(sim)
        self._key = key

    def get(self, predicate: Optional[Callable[[Any], bool]] = None,
            key: Any = None) -> Event:
        """Retrieve the oldest item matching ``predicate`` (any, if None),
        or the item keyed ``key``."""
        if key is not None and (predicate is not None or self._key is None):
            raise SimulationError("a keyed get needs a keyed store and "
                                  "no predicate")
        return self._wait(_StoreGet(self, predicate, key))
