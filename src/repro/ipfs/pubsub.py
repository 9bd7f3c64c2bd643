"""Topic-based publish/subscribe (gossipsub stand-in).

IPFS exposes a pub/sub facility that the protocol uses in the
multi-aggregator verification path (Sec. IV-B: "Aggregators use the IPFS
pub/sub functionality to publish their IPFS hashes for their partial
updates").  We model the delivered behaviour — every live subscriber of a
topic receives each published message — with fan-out charged to the
publisher's uplink, which is the dominant first-order cost of flood-based
pubsub at these scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..sim import Event, Store
from ..net import Transport
from ..net.bandwidth import TransferAbortedError

#: Wire overhead of a pubsub frame beyond its payload.
_FRAME_OVERHEAD = 128


@dataclass
class PubSubMessage:
    """One delivered pub/sub message."""

    topic: str
    sender: str
    payload: Any
    published_at: float
    delivered_at: float = 0.0


class Subscription:
    """A subscriber's message queue for one topic."""

    def __init__(self, pubsub: "PubSub", topic: str, subscriber: str):
        self.pubsub = pubsub
        self.topic = topic
        self.subscriber = subscriber
        self.queue = Store(pubsub.sim)

    def get(self) -> Event:
        """Wait for the next message on this topic."""
        return self.queue.get()

    def cancel(self) -> None:
        """Stop receiving messages on this topic."""
        self.pubsub.unsubscribe(self)


class PubSub:
    """The pub/sub fabric shared by all IPFS nodes and clients."""

    def __init__(self, transport: Transport):
        self.transport = transport
        self.sim = transport.sim
        #: topic -> subscriptions in join order (a dict, not a set: a set
        #: of objects iterates in address order, which would make the
        #: fan-out order — and with it the event trace — differ between
        #: replays).
        self._topics: Dict[str, Dict[Subscription, None]] = {}

    def subscribe(self, topic: str, subscriber: str) -> Subscription:
        """Join ``topic``; returns the queue to consume from."""
        subscription = Subscription(self, topic, subscriber)
        self._topics.setdefault(topic, {})[subscription] = None
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        subscribers = self._topics.get(subscription.topic)
        if subscribers:
            subscribers.pop(subscription, None)
            if not subscribers:
                del self._topics[subscription.topic]

    def peers(self, topic: str) -> int:
        """Number of current subscribers of ``topic``."""
        return len(self._topics.get(topic, ()))

    def publish(self, topic: str, sender: str, payload: Any,
                size: float = 0.0) -> Event:
        """Publish to every subscriber; event fires when all are delivered.

        The message is also delivered to the sender itself if subscribed
        (matching real pubsub semantics).
        """
        message = PubSubMessage(
            topic=topic, sender=sender, payload=payload,
            published_at=self.sim.now,
        )
        deliveries = []
        for subscription in list(self._topics.get(topic, ())):
            deliveries.append(
                self.sim.process(
                    self._deliver(message, subscription, sender, size),
                    name=f"pubsub:{topic}->{subscription.subscriber}",
                )
            )
        return self.sim.all_of(deliveries)

    def _deliver(self, message: PubSubMessage, subscription: Subscription,
                 sender: str, size: float):
        try:
            yield self.transport.network.transfer(
                sender, subscription.subscriber, size + _FRAME_OVERHEAD
            )
        except TransferAbortedError:
            # Best-effort fabric: a dead link eats the frame.
            return
        delivered = PubSubMessage(
            topic=message.topic,
            sender=message.sender,
            payload=message.payload,
            published_at=message.published_at,
            delivered_at=self.sim.now,
        )
        yield subscription.queue.put(delivered)
