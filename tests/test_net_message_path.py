"""The callback-chain message path against the generator pair it replaced.

The benchmark's workloads all run ``latency = 0`` and only one of them
aborts anything, so their digests say nothing about the latency wait,
the two offline checks or the abort path.  Here random traffic and the
directed fault cases go through :class:`~repro.net.Network` /
:class:`~repro.net.Transport` and through the reference kept in
``tests/reference_message_path.py``, and must come out the same.

What "the same" means where several things share one simulated instant:
messages that cross the wire keep their order, and so do loopback
(``src == dst``) messages, each among themselves — the old loopback path
skipped one of the two processes and so overtook wire messages of its
instant by two kernel steps, the new one is first-sent-first-delivered.
At an instant where a getter took a loopback message, the wire messages
that endpoint's getter takes are compared among themselves, not against
other endpoints': the loopback message can occupy a getter that the old
path had already re-armed (pinned by an ``@example``).
``TransferAborted`` rows carry the same fields at the same instant; the
network now publishes them when it takes the link down, not one kernel
step later, so their order *within* an instant is not compared.
"""

from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import GRADIENT, Address
from repro.core.directory import DirectoryClient, DirectoryService
from repro.ipfs import DHT
from repro.ipfs.cid import compute_cid
from repro.net import Network, Transport
from repro.net.bandwidth import TransferAbortedError
from repro.obs.events import (DirectoryRequest, GradientRegistered,
                              TransferAborted, TransferCompleted,
                              TransferStarted)
from repro.sim import Simulator
from tests.reference_message_path import ReferenceNetwork, ReferenceTransport
from tests.util import set_host_capacity

NEW = (Network, Transport)
REFERENCE = (ReferenceNetwork, ReferenceTransport)
BOTH = pytest.mark.parametrize("classes", [NEW, REFERENCE],
                               ids=["callbacks", "reference"])

#: Instants, the latency and the time 100 B take are all exact binary
#: fractions, so that latency waits and completions land exactly on other
#: actions' instants.
TICK = 2.0 ** -10
RATE = 100 / TICK
HOSTS = ("a", "b", "c", "hub")
#: Endpoints with a getter always waiting; the others let mail pile up.
DRAINED = ("a", "hub")


#: One sighting of a delivered message: ``seen`` is the instant a getter
#: or the sender's event fired, or the inbox the message was left in.
Delivery = namedtuple("Delivery",
                      "seen src dst kind payload delivered_at")


def _delivery(seen, message):
    return Delivery(seen, message.src, message.dst, message.kind,
                    message.payload, message.delivered_at)


def _asymmetric_latency(src, dst):
    return 2 * TICK if src < dst else 0.0


class World:
    """One simulator + network + transport and everything it did."""

    def __init__(self, classes, latency=0.0, asymmetric=False):
        network_class, transport_class = classes
        if asymmetric:
            network_class = type("Asymmetric", (network_class,), {
                "latency": lambda self, src, dst:
                    _asymmetric_latency(src, dst)})
        self.sim = Simulator()
        self.network = network_class(self.sim, default_latency=latency)
        for name in HOSTS:
            self.network.add_host(
                name, up_bandwidth=float("inf") if name == "hub" else RATE)
        self.transport = transport_class(self.network)
        self.endpoints = {name: self.transport.endpoint(name)
                          for name in HOSTS}
        self.sent = 0
        self.fired, self.received, self.rows = [], [], []
        self.sim.bus.subscribe(self.rows.append, TransferStarted,
                               TransferCompleted, TransferAborted)
        for name in DRAINED:
            self._drain(self.endpoints[name])

    def _drain(self, endpoint):
        def got(event):
            self.received.append(_delivery(self.sim.now, event.value))
            endpoint.receive()._add_callback(got)

        endpoint.receive()._add_callback(got)

    def send(self, src, dst, size, kind="m"):
        self.sent += 1
        delivered = self.endpoints[src].send(dst, kind, payload=self.sent,
                                             size=size)
        delivered._add_callback(lambda event: self.fired.append(
            _delivery(self.sim.now, event.value)))
        return delivered

    def apply(self, action):
        verb, *args = action
        if verb == "send":
            self.send(*args)
        elif verb == "online":
            self.network.set_host_online(*args)
        else:
            set_host_capacity(self.network, *args)

    def run(self, schedule):
        for tick, action in schedule:
            self.sim.timeout(tick * TICK)._add_callback(
                lambda _event, action=action: self.apply(action))
        self.sim.run()

    def outcome(self):
        """Everything compared between the two paths."""
        leftover = [_delivery(name, message)
                    for name, endpoint in self.endpoints.items()
                    for message in endpoint.inbox.items]
        aborted = [row for row in self.rows
                   if isinstance(row, TransferAborted)]
        assert aborted == sorted(aborted, key=lambda row: row.at)
        out = {
            "now": self.sim.now,
            "dropped": self.transport.dropped,
            "delivered_by_kind": self.transport.delivered_by_kind,
            "bytes": [(host.name, host.bytes_sent, host.bytes_received)
                      for host in self.network.hosts()],
            "bytes_delivered": self.network.bytes_delivered,
            "aborted": sorted(aborted, key=repr),
            "aborted_at": [row.at for row in aborted],
        }
        logs = {
            "fired": self.fired, "received": self.received,
            "leftover": leftover,
            "rows": [row for row in self.rows
                     if not isinstance(row, TransferAborted)],
        }
        for name, log in logs.items():
            out[f"{name}/wire"] = [
                entry for entry in log if entry.src != entry.dst]
            out[f"{name}/loopback"] = [
                entry for entry in log if entry.src == entry.dst]
        # A loopback message that takes a drained endpoint's getter holds
        # that endpoint's wire mail of its instant until the getter is
        # re-armed, behind other endpoints' getters; as loopback timing
        # differs, that endpoint's wire mail of such an instant is moved
        # after the other endpoints' (whose order is still compared).
        looped = {(entry.seen, entry.dst)
                  for entry in out["received/loopback"]}
        out["received/wire"].sort(key=lambda entry: (
            entry.seen,
            entry.dst if (entry.seen, entry.dst) in looped else ""))
        return out


# -- generated traffic ---------------------------------------------------------

hosts = st.sampled_from(HOSTS)
capacities = st.sampled_from([None, RATE / 4, RATE, 3 * RATE])
actions = st.one_of(
    st.tuples(st.just("send"), hosts, hosts,
              st.sampled_from([0, 0.0, 1e-7, 50, 100.0, 250.0, 400]),
              st.sampled_from(["m0", "m1", "m2"])),
    st.tuples(st.just("online"), st.sampled_from(HOSTS[:3]), st.booleans()),
    st.tuples(st.just("bandwidth"), st.sampled_from(HOSTS[:3]),
              capacities, capacities),
)
schedules = st.lists(st.tuples(st.integers(0, 8), actions),
                     min_size=1, max_size=40)
latencies = st.sampled_from([
    dict(), dict(latency=TICK), dict(asymmetric=True),
])


@settings(max_examples=200, deadline=None)
@given(schedules, latencies)
# At 5 ticks ``a``'s getter takes its own loopback message first; on the
# callback path ``b`` → ``a`` then waits for the re-armed getter, behind
# ``a`` → ``hub``, while the reference delivers it before.
@example(schedule=[(0, ("send", "a", "a", 0, "m0")),
                   (0, ("bandwidth", "a", None, None)),
                   (4, ("send", "b", "a", 0, "m0")),
                   (0, ("bandwidth", "a", None, None)),
                   (4, ("send", "a", "hub", 0, "m0")),
                   (5, ("send", "a", "a", 0, "m0"))],
         latency=dict(latency=TICK))
def test_random_traffic_matches_the_generator_pair(schedule, latency):
    """Sends (sizes down to 0, loopback, three kinds), link outages and
    heals, capacity changes — many sharing an instant with each other,
    with a latency wait's end or with a completion — under no latency,
    a default latency and a per-pair one (a ``latency`` override)."""
    new, reference = World(NEW, **latency), World(REFERENCE, **latency)
    new.run(schedule)
    reference.run(schedule)
    outcome = new.outcome()
    assert outcome == reference.outcome()
    # Every message is accounted for exactly once, and a sender's event
    # fires if and only if its message arrived.
    delivered = sum(outcome["delivered_by_kind"].values())
    assert delivered + outcome["dropped"] == new.sent
    assert len(new.fired) == delivered
    assert len(new.received) + sum(
        len(endpoint.inbox) for endpoint in new.endpoints.values()
    ) == delivered


# -- directed fault cases ------------------------------------------------------


@BOTH
def test_send_to_an_offline_host_is_lost_not_raised(classes):
    world = World(classes)
    world.network.set_host_online("b", False)
    delivered = world.send("a", "b", 100.0)
    world.sim.run()
    assert not delivered.triggered
    assert world.transport.dropped == 1
    assert len(world.endpoints["b"].inbox) == 0
    assert world.rows[-1] == TransferAborted(
        at=0.0, src="a", dst="b", size=100.0, reason="host offline")


@BOTH
def test_host_going_offline_during_the_latency_wait_loses_the_message(
        classes):
    world = World(classes, latency=1.0)
    delivered = world.send("a", "b", 100.0)
    world.sim.timeout(0.5)._add_callback(
        lambda _event: world.network.set_host_online("a", False))
    world.sim.run()
    assert not delivered.triggered
    assert world.transport.dropped == 1
    assert world.network._scheduler._flows == []
    assert world.rows == [
        TransferStarted(at=0.0, src="a", dst="b", size=100.0),
        TransferAborted(at=1.0, src="a", dst="b", size=100.0,
                        reason="host offline"),
    ]


@BOTH
def test_link_down_mid_flow_raises_the_full_error_into_the_waiter(classes):
    world = World(classes)
    seen = []

    def waiter():
        try:
            yield world.network.transfer("a", "b", 400)
        except TransferAbortedError as exc:
            seen.append((world.sim.now, exc.reason, exc.src, exc.dst,
                         exc.size, str(exc)))

    world.sim.process(waiter())
    world.sim.timeout(TICK)._add_callback(
        lambda _event: world.network.set_host_online("b", False,
                                                     reason="cable cut"))
    world.sim.run()
    assert seen == [(TICK, "cable cut", "a", "b", 400,
                     "transfer a->b (400B) aborted: cable cut")]
    assert world.rows[-1] == TransferAborted(
        at=TICK, src="a", dst="b", size=400, reason="cable cut")
    assert world.network.host("b").bytes_received == 400  # charged at start


@BOTH
def test_aborted_send_neither_fires_nor_crashes_the_run(classes):
    """Nothing waits on the message's transfer but the delivery callback,
    which must defuse the failure: an undefused failed event would raise
    out of ``sim.run()``."""
    world = World(classes)
    lost = world.send("a", "b", 400)
    kept = world.send("a", "c", 400)
    world.sim.timeout(TICK)._add_callback(
        lambda _event: world.network.set_host_online("b", False))
    world.sim.run()
    assert not lost.triggered and kept.processed
    assert world.transport.dropped == 1
    assert world.transport.delivered_by_kind == {"m": 1}
    aborted = [row for row in world.rows if isinstance(row, TransferAborted)]
    assert aborted == [TransferAborted(at=TICK, src="a", dst="b", size=400,
                                       reason="link down")]


@BOTH
def test_late_reply_after_a_timed_out_request_is_still_swallowed(classes):
    world = World(classes)
    a, b = world.endpoints["b"], world.endpoints["c"]  # neither is drained
    got = []

    def slow_server():
        request = yield b.receive(kind="ping")
        yield world.sim.timeout(10.0)
        yield b.respond(request, "pong", payload="late")

    def client():
        got.append((yield a.request("c", "ping", timeout=5.0)))

    world.sim.process(slow_server())
    world.sim.process(client())
    world.sim.run()
    assert got == [None]
    assert world.transport.delivered_by_kind == {"ping": 1, "pong": 1}
    assert a.inbox.items == [] and b.inbox.items == []


@BOTH
@pytest.mark.parametrize("ticks", [2, 3], ids=["on-the-deadline", "before-it"])
def test_a_reply_landing_on_its_deadline_loses_to_it(classes, ticks):
    """Request and reply take a tick each.  A deadline two ticks out is
    due at the very instant the reply lands; it was queued first, so it
    wins: the request resolves to None and the getter left behind
    swallows the reply.  A tick later the reply wins and cancels it."""
    world = World(classes)
    client, server = world.endpoints["b"], world.endpoints["c"]
    server.receive(kind="ping")._add_callback(lambda got: server.respond(
        got.value, "pong", payload="pong", size=100))
    got = []

    def caller():
        reply = yield client.request("c", "ping", size=100,
                                     timeout=ticks * TICK)
        got.append((world.sim.now, reply and reply.payload))

    world.sim.process(caller())
    world.sim.run()
    assert got == [(2 * TICK, None if ticks == 2 else "pong")]
    assert world.sim.now == 2 * TICK
    assert world.transport.delivered_by_kind == {"ping": 1, "pong": 1}
    assert client.inbox.items == [] and client.inbox._keyed == {}


def _directory(classes, processing_delay):
    """The directory and three clients on ``classes``' message path,
    every link ``RATE``; requests and who served them, step by step."""
    network_class, transport_class = classes
    sim = Simulator()
    network = network_class(sim)
    for name in ("directory",) + HOSTS[:3]:
        network.add_host(name, up_bandwidth=RATE)
    transport = transport_class(network)
    directory = DirectoryService(sim, transport, DHT(sim),
                                 processing_delay=processing_delay)
    clients = {name: DirectoryClient(name, transport)
               for name in HOSTS[:3]}
    steps, step = [], sim.step
    sim.step = lambda: (steps.append(None), step())
    rows = []
    sim.bus.subscribe(lambda row: rows.append((len(steps), row)),
                      DirectoryRequest, TransferStarted, TransferCompleted)
    return sim, directory, clients, rows


@BOTH
def test_a_browned_out_directory_serves_requests_in_arrival_order(classes):
    """Sent a tick apart — c, a, b — three registrations reach a server
    that spends eight ticks on each: it takes them one at a time, in the
    order they arrived, eight ticks apart, and acknowledges them so."""
    sim, directory, clients, rows = _directory(classes, 8 * TICK)
    registered = []
    sim.bus.subscribe(registered.append, GradientRegistered)
    acked = []

    def register(name, start):
        yield sim.timeout(start)
        yield from clients[name].register(
            Address(name, 0, 0, GRADIENT), compute_cid(name.encode()))
        acked.append(name)

    for start, name in enumerate("cab"):
        sim.process(register(name, start * TICK))
    sim.run()
    entries = directory.state.entries_for(0, 0, GRADIENT)
    assert [entry.address.uploader_id for entry in entries] == list("cab")
    served = [row.at for _, row in rows
              if isinstance(row, DirectoryRequest)]
    assert [event.at for event in registered] \
        == pytest.approx([at + 8 * TICK for at in served])
    assert [served[1] - served[0], served[2] - served[1]] \
        == pytest.approx([8 * TICK] * 2)
    assert acked == list("cab")
    assert not directory._backlog and not directory.endpoint.inbox.items


@BOTH
def test_an_idle_directory_answers_a_request_as_it_arrives(classes):
    """No processing delay, nothing queued: the answer leaves the
    directory at the instant the request arrived — on the callback path
    inside the very step that delivered it (the reference's message
    processes each take a step of their own)."""
    sim, directory, clients, rows = _directory(classes, 0.0)
    lookup = sim.process(clients["a"].lookup(0, 0, GRADIENT))
    sim.run()
    assert lookup.value == []
    arrived, = [(step, row) for step, row in rows
                if isinstance(row, TransferCompleted)
                and row.dst == "directory"]
    served, answered = [(step, row) for step, row in rows
                        if isinstance(row, DirectoryRequest)
                        or (isinstance(row, TransferStarted)
                            and row.src == "directory")]
    assert arrived[1].at == served[1].at == answered[1].at
    if classes is NEW:
        assert arrived[0] == served[0] == answered[0]
