"""A typed publish/subscribe event bus.

The bus is the repo's instrumentation spine: every layer (network,
IPFS, directory, protocol roles) publishes :mod:`~repro.obs.events`
named tuples to it, and every consumer — telemetry, counters, trace
exporters, tests — is a subscriber.  Producers and consumers never see
each other.

Performance contract: **zero overhead when unsubscribed**.  Dispatch is
by exact event type (one dict lookup, no MRO walk), and emission sites
in hot paths guard event *construction* behind :meth:`EventBus.wants`,
so a run with no subscribers pays one attribute load and one boolean
check per site.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Type

Handler = Callable[[tuple], None]

#: Dispatch key for subscribe-to-everything handlers.
_ALL = object()


class Subscription:
    """A handle returned by :meth:`EventBus.subscribe`; cancel to stop
    receiving events.  Usable as a context manager."""

    __slots__ = ("_bus", "_keys", "_handler", "active")

    def __init__(self, bus: "EventBus", keys, handler: Handler):
        self._bus = bus
        self._keys = keys
        self._handler = handler
        self.active = True

    def cancel(self) -> None:
        """Detach the handler; safe to call more than once."""
        if not self.active:
            return
        self.active = False
        self._bus._remove(self._keys, self._handler)

    # Alias so subscribers read naturally as resources.
    close = cancel

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cancel()


class EventBus:
    """Exact-type pub/sub dispatch for :data:`~repro.obs.events.EVENT_TYPES`."""

    __slots__ = ("_handlers", "_has_all", "events_published")

    def __init__(self):
        self._handlers: Dict[object, List[Handler]] = {}
        self._has_all = False
        #: Events actually dispatched to at least one handler.
        self.events_published = 0

    # -- subscription ----------------------------------------------------------

    def subscribe(self, handler: Handler,
                  *event_types: Type[tuple]) -> Subscription:
        """Deliver every published event of the given types to ``handler``.

        With no ``event_types``, the handler receives *all* events.
        Returns a :class:`Subscription`; cancel it to detach.
        """
        keys = list(event_types) if event_types else [_ALL]
        for key in keys:
            self._handlers.setdefault(key, []).append(handler)
        self._has_all = _ALL in self._handlers
        return Subscription(self, keys, handler)

    def _remove(self, keys, handler: Handler) -> None:
        for key in keys:
            handlers = self._handlers.get(key)
            if handlers is None:
                continue
            try:
                handlers.remove(handler)
            except ValueError:
                pass
            if not handlers:
                del self._handlers[key]
        self._has_all = _ALL in self._handlers

    # -- introspection ----------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when at least one subscription exists."""
        return bool(self._handlers)

    def wants(self, event_type: Type[tuple]) -> bool:
        """True when publishing ``event_type`` would reach a handler.

        Hot emission sites call this *before constructing* the event, so
        an unobserved run never allocates event objects.
        """
        return self._has_all or event_type in self._handlers

    # -- publishing --------------------------------------------------------------

    def publish(self, event: tuple) -> None:
        """Dispatch ``event`` to its type's handlers, then wildcards.

        Handlers subscribed to both see the event once per matching
        registration; handler exceptions propagate to the publisher (a
        broken subscriber should fail loudly, not corrupt telemetry
        silently).
        """
        handlers = self._handlers
        if not handlers:
            return
        self.events_published += 1
        typed = handlers.get(type(event))
        if typed:
            # Copy: a handler may unsubscribe (itself or others) mid-dispatch.
            for handler in tuple(typed):
                handler(event)
        if self._has_all:
            for handler in tuple(handlers[_ALL]):
                handler(event)
