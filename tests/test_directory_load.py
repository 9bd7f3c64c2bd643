"""Tests for directory processing delay and remaining server-side paths."""

import pytest

from repro.core import (
    Address,
    DirectoryProfile,
    FLSession,
    GRADIENT,
    ProtocolConfig,
)
from repro.core.directory import DirectoryClient, DirectoryService
from repro.faults import FaultPlan, FaultSpec
from repro.ipfs import DHT, IPFSNode
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import Network, NetworkProfile, Transport, mbps
from repro.obs import FlightRecorder, InvariantMonitors
from repro.sim import Simulator

from tests.test_core_directory import make_world, run


def make_loaded_directory(processing_delay):
    sim = Simulator()
    network = Network(sim)
    for name in ("directory", "ipfs-0", "client-0"):
        network.add_host(name, up_bandwidth=mbps(100))
    transport = Transport(network)
    for name in ("directory", "ipfs-0", "client-0"):
        transport.endpoint(name)
    dht = DHT(sim, lookup_delay=0.0)
    node = IPFSNode(sim, transport, dht, "ipfs-0")
    directory = DirectoryService(sim, transport, dht,
                                 processing_delay=processing_delay)
    client = DirectoryClient("client-0", transport)
    return sim, node, directory, client


def test_processing_delay_serializes_requests():
    sim, node, directory, client = make_loaded_directory(0.5)
    cid = node.store_object(b"g")
    finish = {}

    def registrant(index):
        yield from client.register(Address(f"t{index}", 0, 0, GRADIENT),
                                   cid)
        finish[index] = sim.now

    for index in range(4):
        sim.process(registrant(index))
    sim.run()
    # Four registrations behind a 0.5s-per-request server: the last ack
    # lands no earlier than 2s.
    assert max(finish.values()) >= 4 * 0.5
    assert directory.register_count == 4


def test_zero_processing_delay_is_fast():
    sim, node, directory, client = make_loaded_directory(0.0)
    cid = node.store_object(b"g")
    finish = {}

    def registrant(index):
        yield from client.register(Address(f"t{index}", 0, 0, GRADIENT),
                                   cid)
        finish[index] = sim.now

    for index in range(4):
        sim.process(registrant(index))
    sim.run()
    assert max(finish.values()) < 0.1


def test_processing_delay_validation():
    sim = Simulator()
    network = Network(sim)
    network.add_host("directory")
    transport = Transport(network)
    dht = DHT(sim)
    with pytest.raises(ValueError):
        DirectoryService(sim, transport, dht, processing_delay=-1.0)


def make_session(directory=None, faults=None, **config):
    data = make_classification(num_samples=160, num_features=8,
                               class_separation=3.0, seed=0)
    return FLSession(
        ProtocolConfig(num_partitions=2, t_train=300, t_sync=600, **config),
        lambda: LogisticRegression(num_features=8, seed=0),
        split_iid(data, 4, seed=0), network=NetworkProfile(num_ipfs_nodes=4),
        directory=directory, faults=faults,
    )


def brownout(at, processing_delay, duration):
    return FaultSpec(kind="directory_brownout", at=at,
                     processing_delay=processing_delay, duration=duration)


def test_profile_default_processing_delay_is_zero():
    assert DirectoryProfile().processing_delay == 0.0
    assert make_session().directory.processing_delay == 0.0


def test_profile_processing_delay_reaches_the_server():
    session = make_session(DirectoryProfile(processing_delay=0.002))
    assert session.directory.processing_delay == 0.002


def test_profile_rejects_a_negative_processing_delay():
    with pytest.raises(ValueError, match="processing_delay"):
        DirectoryProfile(processing_delay=-1.0)


def test_the_one_server_lives_on_the_well_known_host():
    session = make_session()
    assert type(session.directory) is DirectoryService
    assert session.directory.name == session.testbed.directory_name \
        == "directory"


def test_every_participant_reaches_the_one_server():
    session = make_session()
    participants = session.trainers + session.aggregators
    assert len(participants) > 4
    for participant in participants:
        assert type(participant.directory) is DirectoryClient


def test_brownout_sets_and_restores_the_server_delay():
    session = make_session(DirectoryProfile(processing_delay=0.001),
                           FaultPlan([brownout(0.5, 0.05, 30.0)]))
    server = session.directory
    session.sim.run(until=1.0)
    assert server.processing_delay == 0.05
    session.sim.run(until=31.0)
    assert server.processing_delay == 0.001


def test_brownout_stays_clean():
    """A slow directory is a latency event, not misbehaviour: the blame
    report stays empty and every invariant holds."""
    session = make_session(faults=FaultPlan([brownout(0.5, 0.05, 30.0)],
                                             seed=11),
                           verifiable=True)
    recorder = FlightRecorder(session.sim.bus)
    monitors = InvariantMonitors(session.sim.bus)
    session.run(rounds=1)
    monitors.finalize()
    recorder.close()
    assert recorder.incidents == []
    assert not monitors.violations
    assert session.directory.register_count > 0


def test_nested_brownouts_restore_in_order():
    """A brownout that starts and ends inside another hands the server
    back the outer brownout's delay, and the outer one the profile's."""
    session = make_session(
        DirectoryProfile(processing_delay=0.001),
        FaultPlan([brownout(1.0, 0.05, 100.0), brownout(2.0, 0.2, 10.0)]),
    )
    server = session.directory
    for until, delay in ((1.5, 0.05), (3.0, 0.2), (13.0, 0.05),
                         (102.0, 0.001)):
        session.sim.run(until=until)
        assert server.processing_delay == delay, until


def test_session_with_loaded_directory_still_completes():
    session = make_session(DirectoryProfile(processing_delay=0.05))
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    # The serialized directory visibly stretches the iteration.
    fast_metrics = make_session().run_iteration()
    assert metrics.end_to_end_delay > fast_metrics.end_to_end_delay


def test_pubsub_topics_are_isolated():
    sim, transport, dht, node, directory, committer = make_world()
    from repro.ipfs import PubSub
    pubsub = PubSub(transport)
    sub_a = pubsub.subscribe("topic-a", "client-0")
    sub_b = pubsub.subscribe("topic-b", "client-1")
    got = {}

    def listener(name, subscription):
        message = yield subscription.get()
        got[name] = message.topic

    sim.process(listener("a", sub_a))
    sim.process(listener("b", sub_b))
    pubsub.publish("topic-a", "client-2", payload=1)
    pubsub.publish("topic-b", "client-3", payload=2)
    sim.run()
    assert got == {"a": "topic-a", "b": "topic-b"}
    assert pubsub.peers("topic-a") == 1
    assert pubsub.peers("nonexistent") == 0
