"""The live progress layer: heartbeats over the event bus."""

import io
import json

import numpy as np
import pytest

from repro.core import FLSession, ProtocolConfig
from repro.ml import Dataset, SyntheticModel
from repro.net import NetworkProfile
from repro.obs import (
    EventBus,
    FlightRecorder,
    MetricsRegistry,
    ProgressReporter,
    format_heartbeat,
    read_progress,
)
from repro.obs.profiling import FakeWallClock
from repro.obs.events import IterationFinished, IterationStarted


# -- ProgressReporter ------------------------------------------------------------


def test_heartbeat_schema_and_pacing():
    bus = EventBus()
    clock = FakeWallClock()
    human = io.StringIO()
    jsonl = io.StringIO()
    reporter = ProgressReporter(bus, stream=human, jsonl=jsonl,
                                interval=1.0, label="demo", clock=clock)
    bus.publish(IterationStarted(at=10.0, iteration=0))
    assert reporter.heartbeats == 0  # no wall time elapsed yet
    clock.advance(1.5)
    bus.publish(IterationFinished(at=42.0, iteration=0))
    assert reporter.heartbeats == 1
    record = json.loads(jsonl.getvalue().splitlines()[0])
    assert record["seq"] == 0
    assert record["label"] == "demo"
    assert record["iteration"] == 0
    assert record["sim_seconds"] == 42.0
    assert record["events"] == 2
    assert record["events_per_s"] > 0
    assert "[demo]" in human.getvalue()
    # Within the interval: no new beat.
    bus.publish(IterationStarted(at=43.0, iteration=1))
    assert reporter.heartbeats == 1
    reporter.close()
    assert reporter.heartbeats == 2  # close always flushes a final beat
    final = json.loads(jsonl.getvalue().splitlines()[-1])
    assert final["iteration"] == 1
    assert final["events"] == 3


def test_heartbeat_reports_registry_and_recorder_occupancy():
    bus = EventBus()
    registry = MetricsRegistry(bus)
    recorder = FlightRecorder(bus, capacity=16)
    clock = FakeWallClock()
    reporter = ProgressReporter(bus, registry=registry, recorder=recorder,
                                stream=None, interval=1.0, clock=clock)
    bus.publish(IterationStarted(at=1.0, iteration=0))
    record = reporter.snapshot()
    assert record["events_observed"] == registry.events_observed
    assert record["peak_telemetry_bytes"] == registry.peak_telemetry_bytes
    assert record["telemetry_bytes"] >= 0
    assert record["recorder_occupancy"] == recorder.occupancy == 1
    assert "telemetry_peak=" in format_heartbeat(record)
    reporter.close()
    recorder.close()
    registry.close()


def test_reporter_validates_interval_and_owns_path_files(tmp_path):
    bus = EventBus()
    with pytest.raises(ValueError):
        ProgressReporter(bus, interval=0.0, stream=None)
    path = tmp_path / "progress.jsonl"
    clock = FakeWallClock()
    with ProgressReporter(bus, stream=None, jsonl=path, clock=clock,
                          label="a"):
        bus.publish(IterationStarted(at=1.0, iteration=0))
    # Append mode: a second reporter extends the same file.
    with ProgressReporter(bus, stream=None, jsonl=path, clock=clock,
                          label="b"):
        pass
    records = read_progress(path)
    assert [record["label"] for record in records] == ["a", "b"]


def test_read_progress_tolerates_a_truncated_tail(tmp_path):
    path = tmp_path / "progress.jsonl"
    path.write_text('{"seq": 0, "label": "x"}\n{"seq": 1, "lab')
    records = read_progress(path)
    assert len(records) == 1
    assert records[0]["seq"] == 0
    assert read_progress(io.StringIO("")) == []


def _exact_session(trainers=24):
    return FLSession(
        ProtocolConfig(num_partitions=4, t_train=600.0, t_sync=1200.0,
                       update_mode="gradient", poll_interval=0.25, seed=7),
        lambda: SyntheticModel(4_000),
        [Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
         for index in range(trainers)],
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )


def test_reporter_never_touches_the_simulated_clock():
    bare = _exact_session()
    bare.run_iteration()
    watched = _exact_session()
    reporter = ProgressReporter(watched.sim.bus, stream=None,
                                jsonl=io.StringIO(), interval=1e-9,
                                clock=FakeWallClock(tick=1e-6))
    watched.run_iteration()
    reporter.close()
    assert reporter.heartbeats > 0
    assert watched.sim.now == bare.sim.now
    assert watched.fingerprint() == bare.fingerprint()
