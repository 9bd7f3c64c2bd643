"""Tests for transfer events, telemetry export and trainer jitter."""

import json

import pytest

from repro.core import FLSession, ProtocolConfig
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import Network, NetworkProfile, mbps
from repro.obs.events import TransferCompleted
from repro.sim import Simulator


# -- transfers on the bus -------------------------------------------------------


def test_trace_records_transfers():
    sim = Simulator()
    network = Network(sim)
    for name in ("a", "b", "c"):
        network.add_host(name, up_bandwidth=mbps(10))
    transfers = []
    sim.bus.subscribe(transfers.append, TransferCompleted)

    def proc():
        yield network.transfer("a", "b", 1000.0)
        yield network.transfer("b", "c", 500.0)

    sim.process(proc())
    sim.run()
    assert [(t.src, t.dst, t.size) for t in transfers] == [
        ("a", "b", 1000.0), ("b", "c", 500.0)]
    first = transfers[0]
    assert first.at > first.started_at
    assert first.size / (first.at - first.started_at) \
        == pytest.approx(mbps(10))


def test_trace_on_full_session():
    data = make_classification(num_samples=160, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    session = FLSession(
        ProtocolConfig(num_partitions=2, t_train=300, t_sync=600),
        lambda: LogisticRegression(num_features=8, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4),
    )
    transfers = []
    session.sim.bus.subscribe(transfers.append, TransferCompleted)
    session.run_iteration()
    # Gradients flow trainer -> node; updates node -> trainer.
    uploads = [t for t in transfers
               if t.src.startswith("trainer") and t.dst.startswith("ipfs")]
    downloads = [t for t in transfers
                 if t.src.startswith("ipfs") and t.dst.startswith("trainer")]
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
    blob = json.dumps(session.metrics.to_dict())
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
