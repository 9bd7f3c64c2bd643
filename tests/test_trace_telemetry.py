"""Tests for transfer tracing, telemetry export and trainer jitter."""

import json

import pytest

from repro.core import FLSession, ProtocolConfig
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import Network, NetworkProfile, TransferTrace, mbps
from repro.sim import Simulator


# -- TransferTrace -----------------------------------------------------------------


def make_traced_network():
    sim = Simulator()
    network = Network(sim)
    for name in ("a", "b", "c"):
        network.add_host(name, up_bandwidth=mbps(10))
    trace = TransferTrace(network)
    return sim, network, trace


def test_trace_records_transfers():
    sim, network, trace = make_traced_network()

    def proc():
        yield network.transfer("a", "b", 1000.0)
        yield network.transfer("b", "c", 500.0)

    sim.process(proc())
    sim.run()
    assert len(trace) == 2
    assert trace.total_bytes() == 1500.0
    first = trace.records[0]
    assert (first.src, first.dst, first.size) == ("a", "b", 1000.0)
    assert first.finished_at > first.started_at
    assert first.throughput == pytest.approx(mbps(10))


def test_trace_traffic_matrix_and_hosts():
    sim, network, trace = make_traced_network()

    def proc():
        yield network.transfer("a", "b", 100.0)
        yield network.transfer("a", "b", 200.0)
        yield network.transfer("c", "a", 50.0)

    sim.process(proc())
    sim.run()
    matrix = trace.bytes_by_pair()
    assert matrix[("a", "b")] == 300.0
    assert matrix[("c", "a")] == 50.0
    hosts = trace.bytes_by_host()
    assert hosts["a"]["out"] == 300.0
    assert hosts["a"]["in"] == 50.0
    assert trace.busiest_host() == "a"


def test_trace_window_and_filter():
    sim, network, trace = make_traced_network()

    def proc(sim):
        yield network.transfer("a", "b", 1000.0)   # finishes ~0.0008s
        yield sim.timeout(10.0)
        yield network.transfer("a", "c", 1000.0)

    sim.process(proc(sim))
    sim.run()
    early = trace.window(0.0, 1.0)
    assert len(early) == 1
    to_c = trace.filter(lambda record: record.dst == "c")
    assert len(to_c) == 1


def test_trace_detach_stops_recording():
    sim, network, trace = make_traced_network()
    trace.detach()

    def proc():
        yield network.transfer("a", "b", 100.0)

    sim.process(proc())
    sim.run()
    assert len(trace) == 0


def test_trace_on_full_session():
    data = make_classification(num_samples=160, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    session = FLSession(
        ProtocolConfig(num_partitions=2, t_train=300, t_sync=600),
        lambda: LogisticRegression(num_features=8, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4),
    )
    trace = TransferTrace(session.testbed.network)
    session.run_iteration()
    assert len(trace) > 0
    # Gradients flow trainer -> node; updates node -> trainer.
    uploads = trace.filter(
        lambda r: r.src.startswith("trainer") and r.dst.startswith("ipfs")
    )
    downloads = trace.filter(
        lambda r: r.src.startswith("ipfs") and r.dst.startswith("trainer")
    )
    assert uploads and downloads


# -- telemetry export ----------------------------------------------------------------


def run_small_session(rounds=2, **config_overrides):
    data = make_classification(num_samples=160, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    defaults = dict(num_partitions=2, t_train=300.0, t_sync=600.0)
    defaults.update(config_overrides)
    session = FLSession(
        ProtocolConfig(**defaults),
        lambda: LogisticRegression(num_features=8, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4),
    )
    session.run(rounds=rounds)
    return session


def test_metrics_to_dict_roundtrips_through_json():
    session = run_small_session()
    blob = session.metrics.to_json()
    parsed = json.loads(blob)
    assert len(parsed["iterations"]) == 2
    first = parsed["iterations"][0]
    assert first["iteration"] == 0
    assert len(first["trainers_completed"]) == 4
    assert first["aggregation_delay"] > 0
    assert first["end_to_end_delay"] > 0


def test_metrics_to_dict_contains_derived_fields():
    session = run_small_session(rounds=1)
    snapshot = session.metrics.latest().to_dict()
    for key in ("collection_time", "total_aggregation_delay",
                "mean_upload_delay", "mean_bytes_received"):
        assert key in snapshot
        assert snapshot[key] is not None


# -- trainer jitter -------------------------------------------------------------------


def test_jitter_spreads_first_gradient_times():
    tight = run_small_session(rounds=1)
    jittered = run_small_session(rounds=1, trainer_jitter=20.0)
    # With jitter, the round takes longer end to end (late arrivals).
    assert (jittered.metrics.latest().duration
            > tight.metrics.latest().duration)
    # But everyone still completes and agrees.
    assert len(jittered.metrics.latest().trainers_completed) == 4
    jittered.consensus_params()


def test_jitter_deterministic_per_seed():
    a = run_small_session(rounds=1, trainer_jitter=10.0)
    b = run_small_session(rounds=1, trainer_jitter=10.0)
    assert (a.metrics.latest().first_gradient_at
            == b.metrics.latest().first_gradient_at)


def test_jitter_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(trainer_jitter=-1.0)
