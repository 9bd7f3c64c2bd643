"""Message transport on top of the flow-level network.

Gives every host a mailbox and a request/response discipline.  Participants
and IPFS nodes in the protocol stack exchange :class:`Message` objects whose
``size`` charges the network and whose ``payload`` carries simulation-side
Python objects (no serialization needed inside the simulator).

A message costs no process and no kernel step of its own: its transfer's
completion event runs inside the flow scheduler's wakeup (see
:meth:`~repro.sim.Simulator.dispatch_in_place`), where one callback files
it in the destination inbox (or hands it to the endpoint's server, the
directory) and fires the sender's delivery event, dispatched only if the
sender waits on it.  A reply's keyed getter and the reply run in place
too: a directory poll costs a wakeup and a settle step per message.  A
message whose transfer aborts is lost, not an error: ``dropped`` counts
it, the sender's event never fires and the requester drops its reply
getter; callers recover via timeout + retry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, Optional

from ..sim import Event, FilterStore, Simulator
from .network import Network


@dataclass
class Message:
    """A message in flight between two endpoints."""

    src: str
    dst: str
    kind: str
    payload: Any = None
    #: Bytes charged to the network for this message.
    size: float = 0.0
    #: Correlates a response with its request.
    request_id: Optional[int] = None
    #: Simulated time the message was delivered (set by the transport).
    delivered_at: float = field(default=0.0, compare=False)


class _Reply(Event):
    """A request's response, or None if its deadline comes first (the
    getter is then left, waited on by nobody, to swallow a late reply)."""

    __slots__ = ("_response", "_deadline")

    def __init__(self, sim: Simulator, response: Event, timeout: float):
        super().__init__(sim)
        self._response, self._deadline = response, sim.timeout(timeout)
        response.callbacks.append(self._answer)
        self._deadline.callbacks.append(self._expire)

    def _answer(self, response: Event) -> None:
        self._deadline.cancel()  # queued, it holds this reply to its end
        self.sim.dispatch_in_place(self, response._value)

    def _expire(self, _deadline: Event) -> None:
        self._response.callbacks.remove(self._answer)
        self.sim.dispatch_in_place(self, None)


class Endpoint:
    """A host's mailbox plus convenience send/receive methods."""

    def __init__(self, transport: "Transport", name: str):
        self.transport = transport
        self.name = name
        self.inbox = FilterStore(transport.sim,
                                 key=attrgetter("request_id"))
        #: A server's own request queue: called with each arriving
        #: message, True if the server took it (it is then not filed).
        self._take: Optional[Callable[[Message], bool]] = None

    def send(self, dst: str, kind: str, payload: Any = None,
             size: float = 0.0, request_id: Optional[int] = None) -> Event:
        """Send a message; the event fires when it is delivered."""
        return self.transport.send(
            Message(src=self.name, dst=dst, kind=kind, payload=payload,
                    size=size, request_id=request_id)
        )

    def receive(self, kind: Optional[str] = None) -> Event:
        """Wait for the next message (optionally of a given kind)."""
        if kind is None:
            return self.inbox.get()
        return self.inbox.get(lambda message: message.kind == kind)

    def request(self, dst: str, kind: str, payload: Any = None,
                size: float = 0.0, timeout: Optional[float] = None) -> Event:
        """Send a request; the event fires with the matching response.

        ``response = yield ep.request(...)``.  If ``timeout`` (simulated
        seconds; None = wait forever) elapses first it fires with None, and
        the abandoned getter stays behind to swallow the late reply.
        """
        request_id = next(self.transport._request_ids)
        self.send(dst, kind, payload, size, request_id)
        response = self.inbox.get(key=request_id)
        if timeout is None:
            return response
        return _Reply(self.transport.sim, response, timeout)

    def respond(self, request: Message, kind: str, payload: Any = None,
                size: float = 0.0) -> Event:
        """Answer ``request``, echoing its correlation id."""
        return self.send(request.src, kind, payload, size, request.request_id)


class Transport:
    """Delivers messages between named endpoints over a :class:`Network`."""

    def __init__(self, network: Network):
        self.network = network
        self.sim: Simulator = network.sim
        self._endpoints: Dict[str, Endpoint] = {}
        self._request_ids = itertools.count(1)
        #: Telemetry: messages delivered, keyed by kind.
        self.delivered_by_kind: Dict[str, int] = {}
        #: Telemetry: messages lost to aborted transfers.
        self.dropped = 0

    def endpoint(self, name: str) -> Endpoint:
        """Create (or fetch) the endpoint for host ``name``.

        The host must already exist on the network.
        """
        if name not in self.network:
            raise KeyError(f"no such host on the network: {name!r}")
        if name not in self._endpoints:
            self._endpoints[name] = Endpoint(self, name)
        return self._endpoints[name]

    def send(self, message: Message) -> Event:
        """Queue ``message`` for delivery; the event fires at delivery —
        never, if a dead link eats the message."""
        if message.dst not in self._endpoints:
            raise KeyError(f"no endpoint registered for {message.dst!r}")
        delivered = self.sim.event()

        def arrive(transfer: Event) -> None:
            if not transfer._ok:
                transfer.defused()
                self.dropped += 1
                # Never to fire, ``delivered`` would hold whoever waits on
                # it in a cycle (waiter -> event -> waiter's resume) that
                # only the cyclic collector frees.
                delivered.callbacks.clear()
                # No reply will come: drop the requester's getter for it.
                for name in (message.src, message.dst):
                    if name in self._endpoints:
                        self._endpoints[name].inbox._keyed.pop(
                            message.request_id, None)
                return
            message.delivered_at = self.sim.now
            self.delivered_by_kind[message.kind] = (
                self.delivered_by_kind.get(message.kind, 0) + 1
            )
            endpoint = self._endpoints[message.dst]
            if endpoint._take is None or not endpoint._take(message):
                endpoint.inbox.deposit(message)
            if delivered.callbacks:
                delivered.succeed(message)
            else:  # nobody waits: processed in place, never dispatched
                delivered._ok, delivered._value = True, message
                delivered.callbacks = None

        self.network.transfer(
            message.src, message.dst, message.size
        )._add_callback(arrive)
        return delivered

