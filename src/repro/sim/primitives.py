"""Waitable synchronization primitives for the simulation kernel.

These mirror the classic discrete-event primitives:

- :class:`Store` — an unbounded-or-bounded FIFO buffer of Python objects,
  with blocking ``put``/``get``.
- :class:`FilterStore` — a store whose ``get`` may select by predicate.
- :class:`Resource` — a counted resource (semaphore) with blocking ``request``.
- :class:`Container` — a continuous-level tank with blocking ``put``/``get``.

Blocking operations return :class:`~repro.sim.core.Event` objects to be
yielded from a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .core import Event, Simulator, SimulationError

__all__ = ["Store", "FilterStore", "Resource", "Container"]


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


class _ResourceRequest(Event):
    __slots__ = ("resource", "_released")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        self._released = False

    def release(self) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with ``capacity`` concurrent slots.

    Usage::

        request = resource.request()
        yield request
        try:
            ...  # hold the resource
        finally:
            resource.release(request)
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: List[_ResourceRequest] = []
        self._waiters: Deque[_ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> _ResourceRequest:
        """Request a slot; the returned event fires once granted."""
        event = _ResourceRequest(self)
        self._waiters.append(event)
        self._dispatch()
        return event

    def release(self, request: _ResourceRequest) -> None:
        """Release a previously granted slot (idempotent)."""
        if request._released:
            return
        if request in self.users:
            self.users.remove(request)
            request._released = True
            self._dispatch()
        elif request in self._waiters:
            # Cancelled before being granted.
            self._waiters.remove(request)
            request._released = True
        else:
            raise SimulationError("release of a request not issued here")

    def _dispatch(self) -> None:
        while self._waiters and len(self.users) < self.capacity:
            request = self._waiters.popleft()
            self.users.append(request)
            request.succeed(request)


class _ContainerRequest(Event):
    """A pending put or get of ``amount``."""

    __slots__ = ("amount",)

    def __init__(self, sim: Simulator, amount: float):
        super().__init__(sim)
        self.amount = amount


class Container:
    """A continuous-level reservoir with blocking put/get of amounts."""

    def __init__(self, sim: Simulator, capacity: float = float("inf"),
                 init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self._level = float(init)
        self._put_waiters: Deque[_ContainerRequest] = deque()
        self._get_waiters: Deque[_ContainerRequest] = deque()

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self.capacity:
            raise ValueError("amount exceeds capacity, would never fit")
        event = _ContainerRequest(self.sim, amount)
        self._put_waiters.append(event)
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError("amount must be positive")
        event = _ContainerRequest(self.sim, amount)
        self._get_waiters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._put_waiters:
                put_event = self._put_waiters[0]
                if self._level + put_event.amount <= self.capacity:
                    self._put_waiters.popleft()
                    self._level += put_event.amount
                    put_event.succeed()
                    progress = True
            if self._get_waiters:
                get_event = self._get_waiters[0]
                if self._level >= get_event.amount:
                    self._get_waiters.popleft()
                    self._level -= get_event.amount
                    get_event.succeed(get_event.amount)
                    progress = True
