"""What one message costs the kernel: events and steps, counted exactly.

A message is one chain of callbacks on events that exist anyway — the
transfer's completion event, the receiver's getter, the sender's
delivery event when the sender waits on it — plus its share of the flow
scheduler's per-instant settle and wakeup.  No process, no process-start
or process-end event, no put event, no dispatch of a delivery event
nobody waits on, and no step of its own for an event that only hands a
value on: a finished flow's completion, a reply's keyed getter and the
reply are dispatched in place (``Simulator.dispatch_in_place``) inside
the wakeup's step.  These tests count ``Simulator.step`` calls,
``Process`` constructions and inbox predicate calls around fixed
traffic; no host timing.
"""

import numpy as np
import pytest

from repro import FLSession, NetworkProfile, ProtocolConfig
from repro.ml import Dataset, SyntheticModel
from repro.net import Network, Transport
from repro.sim import FilterStore, Simulator
from repro.sim.core import Process
from tests.reference_message_path import ReferenceNetwork, ReferenceTransport


@pytest.fixture
def kernel_work(monkeypatch):
    """Counts of kernel steps and of the generators started as processes."""
    work = {"steps": 0, "processes": []}
    step, init = Simulator.step, Process.__init__

    def counting_step(self):
        work["steps"] += 1
        step(self)

    def counting_init(self, sim, generator, name=""):
        work["processes"].append(generator.gi_code.co_filename)
        init(self, sim, generator, name=name)

    monkeypatch.setattr(Simulator, "step", counting_step)
    monkeypatch.setattr(Process, "__init__", counting_init)
    return work


@pytest.fixture
def inbox_work(monkeypatch):
    """Counts of inbox gets and of the calls of their predicates."""
    work = {"gets": 0, "predicate_calls": 0}
    get = FilterStore.get

    def counting_get(self, predicate=None, **keyed):
        work["gets"] += 1
        if predicate is not None:
            asked = predicate

            def predicate(item):
                work["predicate_calls"] += 1
                return asked(item)

        return get(self, predicate, **keyed)

    monkeypatch.setattr(FilterStore, "get", counting_get)
    return work


def _pair(network_class=Network, transport_class=Transport):
    sim = Simulator()
    network = network_class(sim)
    network.add_host("a", up_bandwidth=100.0)
    network.add_host("b", up_bandwidth=100.0)
    transport = transport_class(network)
    return sim, transport.endpoint("a"), transport.endpoint("b")


def _round_trip(sim, a, b):
    """One request -> respond between callback-driven ends; returns the
    reply event."""
    b.receive(kind="ping")._add_callback(
        lambda got: b.respond(got.value, "pong", payload="reply", size=50.0))
    reply = a.request("b", "ping", size=100.0)
    sim.run()
    return reply


def test_request_response_round_trip_spawns_no_process(kernel_work):
    """5 steps for the round trip (9 before completions and reply
    getters ran in place, 6 while an emptied network still armed a
    settle), against 20 steps and 4 processes on the process-per-message
    path (23 then, 21 with that settle; its generator pair is kept under
    ``tests/`` and counted here next to it).  Per message the flow's
    wakeup, with the transfer's event dispatched inside it; the server's
    ``receive`` getter takes a step of its own, the reply's keyed getter
    runs inside the wakeup, and neither end waits on its delivery event.
    The 2 settles are the scheduler's end-of-instant hooks, one step per
    busy instant that leaves a flow to solve or a wakeup to cancel (the
    last delivery leaves neither)."""
    sim, a, b = _pair()
    reply = _round_trip(sim, a, b)
    assert reply.value.payload == "reply" and sim.now == 1.5
    assert kernel_work["processes"] == []
    assert kernel_work["steps"] == 5

    kernel_work.update(steps=0, processes=[])
    sim, a, b = _pair(ReferenceNetwork, ReferenceTransport)
    reply = _round_trip(sim, a, b)
    assert reply.value.payload == "reply" and sim.now == 1.5
    assert len(kernel_work["processes"]) == 4
    assert kernel_work["steps"] == 20


def test_same_instant_burst_costs_no_step_a_message(kernel_work):
    """64 sends at one timestamp, all through at one timestamp: two
    scheduler steps for the lot (one settle, one wakeup; the wakeup
    empties the network, so no second settle: 3 steps before) and none a
    message — the 64 transfers' events run inside the wakeup's step, in
    flow order (64 + 3 steps before that), the delivery events nobody waits
    on are processed without a dispatch — and the inbox holds them in
    send order."""
    sim = Simulator()
    network = Network(sim)
    network.add_host("hub", up_bandwidth=64e6)
    spokes = [f"spoke-{index}" for index in range(64)]
    for name in spokes:
        network.add_host(name, up_bandwidth=1e6)
    transport = Transport(network)
    hub = transport.endpoint("hub")
    delivered = [transport.endpoint(name).send("hub", "burst", payload=index,
                                               size=1e5)
                 for index, name in enumerate(spokes)]
    sim.run()
    assert all(event.processed for event in delivered)
    assert [message.payload for message in hub.inbox.items] == list(range(64))
    assert {message.delivered_at for message in hub.inbox.items} == {0.1}
    assert kernel_work["processes"] == []
    assert kernel_work["steps"] == 2


def test_a_sender_who_waits_resumes_at_delivery_and_one_who_does_not_costs_no_dispatch(
        kernel_work):
    """The delivery event is dispatched only for a sender who subscribed
    to it before the message arrived: yielding ``send()`` resumes the
    sender at the delivery instant with the message; a send nobody waits
    on is processed in place, one step cheaper (7 and 4 steps before the
    transfer's event ran inside the wakeup's step, 6 and 3 while the
    emptied network still armed a settle)."""
    sim, a, b = _pair()
    resumed = []

    def sender():
        message = yield a.send("b", "ping", payload="waited", size=100.0)
        resumed.append((sim.now, message.delivered_at, message.payload))

    sim.process(sender())
    sim.run()
    # Process start, wakeup (and the transfer in it), delivery, process
    # end + 1 settle.
    assert resumed == [(1.0, 1.0, "waited")]
    assert kernel_work["steps"] == 5

    kernel_work.update(steps=0)
    sim, a, b = _pair()
    delivered = a.send("b", "ping", payload="unwatched", size=100.0)
    sim.run()
    assert delivered.processed and delivered.ok
    assert delivered.value.payload == "unwatched" and sim.now == 1.0
    assert [message.payload for message in b.inbox.items] == ["unwatched"]
    # Wakeup + 1 settle: no transfer or delivery dispatch.
    assert kernel_work["steps"] == 2


def test_directory_poll_spawns_no_process_in_net(kernel_work):
    """A whole round of a small session starts no process out of
    ``repro/net`` (the process-per-message path started two per message:
    298 processes and 1 307 steps for this round; 54 processes and 483
    steps before events that only hand a value on were dispatched in
    place, 302 steps now), and one poll of the directory after it costs
    the poller's own process and 6 steps: its start, its end, and per
    message a settle and a wakeup — the request's completion and the
    directory's resumption run inside the first wakeup, the reply's
    completion and keyed getter inside the second (10 steps before; the
    process-per-message path: 5 processes, 24 steps)."""
    config = ProtocolConfig(num_partitions=2, t_train=600.0, t_sync=1200.0,
                            update_mode="gradient", poll_interval=0.25,
                            seed=5)
    datasets = [Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
                for index in range(4)]
    session = FLSession(config, lambda: SyntheticModel(2000), datasets,
                        network=NetworkProfile(num_ipfs_nodes=2,
                                               bandwidth_mbps=10.0))
    session.run_iteration()
    assert kernel_work["processes"]
    assert not [path for path in kernel_work["processes"]
                if "/repro/net/" in path]

    kernel_work.update(steps=0, processes=[])
    client = session.trainers[0].directory
    poll = session.sim.process(client.lookup(0, 0, "update"))
    session.sim.run_until(poll)
    assert [entry["cid"] for entry in poll.value]
    assert len(kernel_work["processes"]) == 1  # the poll itself
    assert kernel_work["steps"] == 6


def test_a_reply_is_found_by_its_request_id_not_by_predicates(inbox_work):
    """One round of 16 exactly-simulated trainers makes 302 inbox gets.
    Predicate getters once called 302 predicates for the then 405 gets
    (0.75 a get): each reply getter was a ``request_id`` predicate,
    asked of every message its inbox received while it waited and of
    every buffered one at each new get.  Keyed by ``request_id``, a reply
    is a dict lookup.  The directory server's request-kind filter was
    the one predicate left, asked once per request it received (68
    lookups + 34 registrations = 102 calls, and one get per request);
    now the server takes its requests off the wire itself, so no
    predicate is called at all."""
    config = ProtocolConfig(num_partitions=2, t_train=600.0, t_sync=1200.0,
                            update_mode="gradient", poll_interval=0.25,
                            seed=11)
    datasets = [Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
                for index in range(16)]
    session = FLSession(config, lambda: SyntheticModel(4000), datasets,
                        network=NetworkProfile(num_ipfs_nodes=4,
                                               bandwidth_mbps=10.0))
    metrics = session.run_iteration()
    assert metrics.end_to_end_delay == 0.4984351999999999  # as before
    delivered = session.testbed.transport.delivered_by_kind
    assert delivered["dir.lookup"] + delivered["dir.register"] == 102
    assert inbox_work["gets"] == 302
    assert inbox_work["predicate_calls"] == 0
