"""Unit tests for Network, Transport and topology builders."""

import math

import pytest

from repro.net import (
    Network,
    Transport,
    build_testbed,
    mbps,
    megabytes,
)
from repro.sim import Simulator

from tests.util import next_event_time


# -- units ---------------------------------------------------------------------


def test_mbps_conversion():
    assert mbps(10.0) == 1_250_000.0  # 10 Mbit/s = 1.25 MB/s


def test_megabytes_conversion():
    assert megabytes(1.3) == 1_300_000.0


# -- Network -------------------------------------------------------------------


def test_add_and_lookup_host():
    sim = Simulator()
    network = Network(sim)
    host = network.add_host("a", up_bandwidth=100.0)
    assert network.host("a") is host
    assert "a" in network
    assert "b" not in network
    assert host.down_bandwidth == 100.0  # defaults to up


def test_duplicate_host_rejected():
    sim = Simulator()
    network = Network(sim)
    network.add_host("a")
    with pytest.raises(ValueError):
        network.add_host("a")


def test_transfer_timing_simple():
    sim = Simulator()
    network = Network(sim)
    network.add_host("a", up_bandwidth=10.0)
    network.add_host("b", up_bandwidth=10.0)
    done_times = []

    def proc(sim, network):
        yield network.transfer("a", "b", 100.0)
        done_times.append(sim.now)

    sim.process(proc(sim, network))
    sim.run()
    assert done_times == [pytest.approx(10.0)]


def test_transfer_respects_slowest_endpoint():
    sim = Simulator()
    network = Network(sim)
    network.add_host("fast", up_bandwidth=1000.0)
    network.add_host("slow", up_bandwidth=10.0)
    done_times = []

    def proc(sim, network):
        yield network.transfer("fast", "slow", 100.0)
        done_times.append(sim.now)

    sim.process(proc(sim, network))
    sim.run()
    assert done_times == [pytest.approx(10.0)]


def test_local_transfer_is_instant():
    sim = Simulator()
    network = Network(sim, default_latency=5.0)
    network.add_host("a", up_bandwidth=1.0)
    done = network.transfer("a", "a", 1e9)
    assert done.triggered


def test_latency_added_once():
    sim = Simulator()
    network = Network(sim, default_latency=2.0)
    network.add_host("a", up_bandwidth=10.0)
    network.add_host("b", up_bandwidth=10.0)
    done_times = []

    def proc(sim, network):
        yield network.transfer("a", "b", 100.0)
        done_times.append(sim.now)

    sim.process(proc(sim, network))
    sim.run()
    assert done_times == [pytest.approx(12.0)]


def test_latency_fn_override():
    sim = Simulator()
    network = Network(sim, default_latency=1.0,
                      latency_fn=lambda s, d: 7.0)
    network.add_host("a")
    network.add_host("b")
    assert network.latency("a", "b") == 7.0
    assert network.latency("a", "a") == 0.0


def test_negative_latency_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, default_latency=-1.0)


def test_telemetry_counters():
    sim = Simulator()
    network = Network(sim)
    network.add_host("a", up_bandwidth=100.0)
    network.add_host("b", up_bandwidth=100.0)

    def proc(sim, network):
        yield network.transfer("a", "b", 50.0)

    sim.process(proc(sim, network))
    sim.run()
    assert network.host("a").bytes_sent == 50.0
    assert network.host("b").bytes_received == 50.0
    assert network.bytes_delivered == pytest.approx(50.0)


def test_fan_in_to_one_receiver():
    """The paper's congested-provider scenario: N senders, one receiver."""
    sim = Simulator()
    network = Network(sim)
    for i in range(8):
        network.add_host(f"t{i}", up_bandwidth=mbps(10))
    network.add_host("provider", up_bandwidth=mbps(10))
    finish = {}

    def proc(sim, network, i):
        yield network.transfer(f"t{i}", "provider", megabytes(1.0))
        finish[i] = sim.now

    for i in range(8):
        sim.process(proc(sim, network, i))
    sim.run()
    # 8 MB through a 1.25 MB/s downlink: all finish together at 6.4s.
    for i in range(8):
        assert finish[i] == pytest.approx(8 * 1_000_000 / mbps(10))


# -- Transport -----------------------------------------------------------------


def make_pair():
    sim = Simulator()
    network = Network(sim)
    network.add_host("a", up_bandwidth=10.0)
    network.add_host("b", up_bandwidth=10.0)
    transport = Transport(network)
    return sim, transport, transport.endpoint("a"), transport.endpoint("b")


def test_send_receive():
    sim, transport, a, b = make_pair()
    got = []

    def receiver(sim, b):
        message = yield b.receive()
        got.append((message.kind, message.payload, sim.now))

    def sender(sim, a):
        yield a.send("b", "hello", payload={"x": 1}, size=100.0)

    sim.process(receiver(sim, b))
    sim.process(sender(sim, a))
    sim.run()
    assert got == [("hello", {"x": 1}, pytest.approx(10.0))]


def test_receive_filters_by_kind():
    sim, transport, a, b = make_pair()
    got = []

    def receiver(sim, b):
        message = yield b.receive(kind="wanted")
        got.append(message.kind)

    def sender(sim, a):
        yield a.send("b", "noise")
        yield a.send("b", "wanted")

    sim.process(receiver(sim, b))
    sim.process(sender(sim, a))
    sim.run()
    assert got == ["wanted"]


def test_request_response_correlation():
    sim, transport, a, b = make_pair()
    got = []

    def server(sim, b):
        request = yield b.receive(kind="ping")
        b.respond(request, "pong", payload=request.payload + 1)

    def client(sim, a):
        response = yield a.request("b", "ping", payload=41)
        got.append((response.kind, response.payload))

    sim.process(server(sim, b))
    sim.process(client(sim, a))
    sim.run()
    assert got == [("pong", 42)]


def test_concurrent_requests_not_crossed():
    sim, transport, a, b = make_pair()
    got = {}

    def server(sim, b):
        for _ in range(2):
            request = yield b.receive(kind="echo")
            b.respond(request, "echo-reply", payload=request.payload)

    def client(sim, a, value):
        response = yield a.request("b", "echo", payload=value)
        got[value] = response.payload

    sim.process(server(sim, b))
    sim.process(client(sim, a, "first"))
    sim.process(client(sim, a, "second"))
    sim.run()
    assert got == {"first": "first", "second": "second"}


def test_request_answered_in_time_cancels_its_deadline():
    """The response wins the race: the deadline is cancelled, so the run
    drains at the reply's time and nothing keeps the reply alive."""
    sim, transport, a, b = make_pair()
    got = []

    def server(sim, b):
        request = yield b.receive(kind="ping")
        b.respond(request, "pong", payload="reply")

    def client(sim, a):
        response = yield a.request("b", "ping", timeout=120.0)
        got.append((sim.now, response.payload))

    sim.process(server(sim, b))
    sim.process(client(sim, a))
    sim.run()
    assert got and got[0][1] == "reply"
    # No lost-race timeout left to drain: the clock did not run on to 120.
    assert sim.now == got[0][0] < 120.0
    assert next_event_time(sim) == math.inf


def test_request_timeout_yields_none_and_late_reply_is_swallowed():
    """The deadline wins: the event fires with None, and the abandoned
    getter still takes the late reply out of the inbox when it comes."""
    sim, transport, a, b = make_pair()
    got = []

    def slow_server(sim, b):
        request = yield b.receive(kind="ping")
        yield sim.timeout(10.0)
        yield b.respond(request, "pong", payload="late")

    def client(sim, a):
        response = yield a.request("b", "ping", timeout=5.0)
        got.append((sim.now, response))

    sim.process(slow_server(sim, b))
    sim.process(client(sim, a))
    sim.run()
    assert got == [(5.0, None)]
    assert transport.delivered_by_kind["pong"] == 1
    assert len(a.inbox) == 0  # swallowed, not left to pile up


def test_endpoint_requires_known_host():
    sim = Simulator()
    network = Network(sim)
    transport = Transport(network)
    with pytest.raises(KeyError):
        transport.endpoint("ghost")


def test_send_to_unregistered_endpoint_raises():
    sim, transport, a, b = make_pair()
    transport.network.add_host("c")
    with pytest.raises(KeyError):
        a.send("c", "hello")


def test_delivered_by_kind_telemetry():
    sim, transport, a, b = make_pair()

    def sender(sim, a):
        yield a.send("b", "gradient")
        yield a.send("b", "gradient")

    sim.process(sender(sim, a))
    sim.run()
    assert transport.delivered_by_kind["gradient"] == 2


# -- topology builders ------------------------------------------------------------


def test_build_testbed_defaults():
    testbed = build_testbed()
    assert len(testbed.trainer_names) == 16
    assert len(testbed.aggregator_names) == 1
    assert len(testbed.ipfs_names) == 8
    assert testbed.directory_name in testbed.network
    trainer = testbed.network.host("trainer-0")
    assert trainer.up_bandwidth == mbps(10.0)
    # Directory is unconstrained by default.
    assert math.isinf(testbed.network.host("directory").up_bandwidth)


def test_build_testbed_validation():
    with pytest.raises(ValueError):
        build_testbed(num_trainers=0)


def test_build_testbed_endpoints_registered():
    testbed = build_testbed(num_trainers=2, num_ipfs_nodes=1)
    endpoint = testbed.transport.endpoint("trainer-0")
    assert endpoint.name == "trainer-0"
