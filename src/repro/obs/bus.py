"""A typed publish/subscribe event bus.

The bus is the repo's instrumentation spine: every layer (network,
IPFS, directory, protocol roles) publishes :mod:`~repro.obs.events`
dataclasses to it, and every consumer — telemetry, counters, trace
exporters, tests — is a subscriber.  Producers and consumers never see
each other.

Performance contract: **zero overhead when unsubscribed**.  Dispatch is
by exact event type (one dict lookup, no MRO walk), and emission sites
in hot paths guard event *construction* behind :meth:`EventBus.wants`,
so a run with no subscribers pays one attribute load and one boolean
check per site.

Scale contract: **deterministic sampling of the firehose**.  At
10^4-10^5 participants the per-transfer and per-request event families
dominate the event count.  A :class:`SamplingPolicy` thins them at the
*producer* (the emission site asks :meth:`EventBus.admits` before
constructing the event), keyed by a SHA-256 of the event's identity
fields — so the admitted subset is a pure function of the run's seed
and configuration, and a seeded replay publishes a byte-identical
stream.  Only the families in :data:`SAMPLED_EVENT_FAMILIES` may be
sampled; everything the invariant monitors and telemetry collector
consume stays exact (the disjointness is pinned by
``tests/test_obs_progress.py``).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Type

from .events import (
    CohortLoadApplied,
    DirectoryRequest,
    Event,
    TransferCompleted,
    TransferStarted,
)

__all__ = [
    "EventBus",
    "Subscription",
    "SamplingPolicy",
    "SAMPLED_EVENT_FAMILIES",
    "sample_key",
]

Handler = Callable[[Event], None]

#: Dispatch key for subscribe-to-everything handlers.
_ALL = object()

#: The high-volume event families a :class:`SamplingPolicy` may thin.
#: Deliberately closed: these are exactly the families *no* exact
#: consumer depends on — the invariant monitors' byte-conservation
#: reads ``BlockFetched``/``BytesReceived``, the telemetry collector
#: reads ``PROTOCOL_EVENTS``, and the flight recorder's default window
#: excludes all of them — so sampling here is a pre-sample tap for
#: every exactness contract.
SAMPLED_EVENT_FAMILIES = (
    TransferStarted,
    TransferCompleted,
    DirectoryRequest,
    CohortLoadApplied,
)

_KEY_SPACE = 1 << 64


def sample_key(*parts: object) -> int:
    """Deterministic 64-bit key from identity fields.

    SHA-256 over the ``\\x1f``-joined string forms of ``parts`` (e.g.
    ``(iteration, partition, node)``), truncated to the first 8 bytes.
    Pure function of its inputs: the same transfer in a seeded replay
    maps to the same key, so sampling decisions replay byte-identically.
    """
    joined = "\x1f".join(str(part) for part in parts)
    digest = hashlib.sha256(joined.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SamplingPolicy:
    """Per-family deterministic admission rates for firehose events.

    ``rates`` maps an event type from :data:`SAMPLED_EVENT_FAMILIES` to
    an admission probability in ``(0, 1]``.  An event is admitted when
    ``sample_key(family, *identity) < rate * 2**64`` — a keyed hash
    threshold, not an RNG, so admission is stable across runs, replays
    and processes.
    """

    __slots__ = ("rates",)

    def __init__(self, rates: Dict[Type[Event], float]):
        for event_type, rate in rates.items():
            if event_type not in SAMPLED_EVENT_FAMILIES:
                raise ValueError(
                    f"{event_type.__name__} is not a samplable family; "
                    "exact consumers depend on it")
            if not 0.0 < rate <= 1.0:
                raise ValueError(
                    f"sample rate for {event_type.__name__} must be in "
                    f"(0, 1], got {rate}")
        self.rates = dict(rates)

    @classmethod
    def firehose(cls, rate: float) -> "SamplingPolicy":
        """Sample every samplable family at the same ``rate``."""
        return cls({family: rate for family in SAMPLED_EVENT_FAMILIES})

    def admits(self, event_type: Type[Event], *key: object) -> bool:
        """Whether the event identified by ``key`` should be published."""
        rate = self.rates.get(event_type)
        if rate is None or rate >= 1.0:
            return True
        threshold = int(rate * _KEY_SPACE)
        return sample_key(event_type.__name__, *key) < threshold

    def describe(self) -> Dict[str, float]:
        """Stable name -> rate mapping for fingerprints/manifests."""
        return {event_type.__name__: rate
                for event_type, rate in sorted(
                    self.rates.items(), key=lambda item: item[0].__name__)}

    def __repr__(self) -> str:
        inner = ",".join(f"{name}={rate}"
                         for name, rate in self.describe().items())
        return f"<SamplingPolicy {inner}>"


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
    """Exact-type pub/sub dispatch for :class:`~repro.obs.events.Event`."""

    __slots__ = ("_handlers", "_has_all", "sampling", "events_published")

    def __init__(self, sampling: Optional[SamplingPolicy] = None):
        self._handlers: Dict[object, List[Handler]] = {}
        self._has_all = False
        #: Optional producer-side thinning of the firehose families;
        #: ``None`` (the default) admits everything.
        self.sampling = sampling
        #: Events actually dispatched to at least one handler.
        self.events_published = 0

    # -- subscription ----------------------------------------------------------

    def subscribe(self, handler: Handler,
                  *event_types: Type[Event]) -> Subscription:
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

    def wants(self, event_type: Type[Event]) -> bool:
        """True when publishing ``event_type`` would reach a handler.

        Hot emission sites call this *before constructing* the event, so
        an unobserved run never allocates event objects.
        """
        return self._has_all or event_type in self._handlers

    def admits(self, event_type: Type[Event], *key: object) -> bool:
        """Whether the sampling policy admits this event identity.

        Always true without a policy.  Emission sites for the firehose
        families call ``wants() and admits()`` so an admitted-out event
        is, like an unwatched one, never constructed.
        """
        sampling = self.sampling
        return sampling is None or sampling.admits(event_type, *key)

    # -- publishing --------------------------------------------------------------

    def publish(self, event: Event) -> None:
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
