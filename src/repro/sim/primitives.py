"""Waitable synchronization primitives for the simulation kernel.

These mirror the classic discrete-event primitives:

- :class:`Store` — an unbounded-or-bounded FIFO buffer of Python objects,
  with blocking ``put``/``get``.
- :class:`FilterStore` — a store whose ``get`` may select by predicate.

Blocking operations return :class:`~repro.sim.core.Event` objects to be
yielded from a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .core import Event, Simulator, SimulationError

__all__ = ["Store", "FilterStore"]


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.item = item


class _StoreGet(Event):
    __slots__ = ("predicate",)

    def __init__(self, store: "Store",
                 predicate: Optional[Callable[[Any], bool]] = None):
        super().__init__(store.sim)
        self.predicate = predicate


class Store:
    """FIFO buffer with blocking put/get.

    ``capacity`` bounds the number of buffered items; ``float("inf")`` (the
    default) makes puts never block.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: Deque[_StorePut] = deque()
        self._get_waiters: Deque[_StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Store ``item``; the returned event fires once it is buffered."""
        event = _StorePut(self, item)
        self._put_waiters.append(event)
        self._dispatch()
        return event

    def deposit(self, item: Any) -> None:
        """:meth:`put` into an unbounded store, minus the event: for a
        producer that never waits to hear that ``item`` is buffered."""
        if self.capacity != float("inf"):
            raise SimulationError("deposit into a bounded store")
        self.items.append(item)
        self._dispatch()

    def get(self) -> Event:
        """Retrieve the oldest item; the event's value is the item."""
        event = _StoreGet(self)
        self._get_waiters.append(event)
        self._dispatch()
        return event

    def _match(self, get_event: _StoreGet) -> Optional[int]:
        """Index of the buffered item satisfying ``get_event``, or None."""
        if not self.items:
            return None
        if get_event.predicate is None:
            return 0
        for index, item in enumerate(self.items):
            if get_event.predicate(item):
                return index
        return None

    def _dispatch(self) -> None:
        """Match puts to free capacity and gets to buffered items."""
        progress = True
        while progress:
            progress = False
            while self._put_waiters and len(self.items) < self.capacity:
                put_event = self._put_waiters.popleft()
                self.items.append(put_event.item)
                put_event.succeed()
            waiting, self._get_waiters = self._get_waiters, deque()
            for get_event in waiting:
                index = self._match(get_event)
                if index is None:
                    self._get_waiters.append(get_event)
                else:
                    get_event.succeed(self.items.pop(index))
                    # Only a blocked put can use the room this made.
                    progress = bool(self._put_waiters)


class FilterStore(Store):
    """A store whose consumers may select items by predicate."""

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Retrieve the oldest item matching ``predicate`` (any, if None)."""
        event = _StoreGet(self, predicate)
        self._get_waiters.append(event)
        self._dispatch()
        return event
