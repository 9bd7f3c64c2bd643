"""Deterministic event sampling and the live progress layer."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scale import ScaleScenario, run_scale_point, scale_manifest
from repro.obs import (
    EventBus,
    FakeWallClock,
    FlightRecorder,
    InvariantMonitors,
    MetricsRegistry,
    ProgressReporter,
    SAMPLED_EVENT_FAMILIES,
    SamplingPolicy,
    format_heartbeat,
    read_progress,
    sample_key,
)
from repro.obs.events import (
    IterationFinished,
    IterationStarted,
    PROTOCOL_EVENTS,
    TransferCompleted,
    TransferStarted,
)
from repro.obs.forensics import DEFAULT_WINDOW_EVENTS


# -- sample_key / SamplingPolicy -------------------------------------------------


def test_sample_key_is_a_pure_function_of_its_parts():
    assert sample_key("a", 1, 2.5) == sample_key("a", 1, 2.5)
    assert sample_key("a", 1) != sample_key("a", 2)
    assert 0 <= sample_key("x") < (1 << 64)
    # Joined with a separator, so field boundaries matter.
    assert sample_key("ab", "c") != sample_key("a", "bc")


def test_sampling_policy_rejects_exact_families_and_bad_rates():
    with pytest.raises(ValueError):
        SamplingPolicy({IterationStarted: 0.5})
    with pytest.raises(ValueError):
        SamplingPolicy({TransferStarted: 0.0})
    with pytest.raises(ValueError):
        SamplingPolicy({TransferStarted: 1.5})


def test_firehose_covers_every_samplable_family():
    policy = SamplingPolicy.firehose(0.25)
    assert set(policy.rates) == set(SAMPLED_EVENT_FAMILIES)
    assert policy.describe() == {
        family.__name__: 0.25 for family in SAMPLED_EVENT_FAMILIES
    }
    assert list(policy.describe()) == sorted(policy.describe())


def test_admission_is_deterministic_and_near_the_rate():
    policy = SamplingPolicy.firehose(0.25)
    decisions = [
        policy.admits(TransferCompleted, "src", "dst", float(index))
        for index in range(4000)
    ]
    replay = [
        policy.admits(TransferCompleted, "src", "dst", float(index))
        for index in range(4000)
    ]
    assert decisions == replay
    admitted = sum(decisions)
    assert 0.20 * 4000 < admitted < 0.30 * 4000  # SHA-256 is uniform
    assert all(
        policy.admits(TransferCompleted, "s", "d", index)
        for index in range(100)
    ) is False


@given(
    rate=st.sampled_from([0.1, 0.25, 0.5, 0.75]),
    salt=st.integers(min_value=0, max_value=1_000_000),
)
@settings(max_examples=20, deadline=None)
def test_admitted_fraction_of_distinct_identities_tracks_the_rate(
        rate, salt):
    """Property: over any population of distinct identities, keyed
    sampling admits ≈rate of them (SHA-256 behaves uniformly), and the
    decision for each identity is stable."""
    policy = SamplingPolicy.firehose(rate)
    population = 4096
    decisions = [
        policy.admits(TransferStarted, f"id-{salt}-{index}", salt)
        for index in range(population)
    ]
    fraction = sum(decisions) / population
    assert abs(fraction - rate) < 0.05
    replay = [
        policy.admits(TransferStarted, f"id-{salt}-{index}", salt)
        for index in range(population)
    ]
    assert replay == decisions


def test_rate_one_admits_everything():
    policy = SamplingPolicy.firehose(1.0)
    assert all(policy.admits(family, index)
               for family in SAMPLED_EVENT_FAMILIES
               for index in range(50))


def test_bus_without_policy_admits_everything():
    bus = EventBus()
    assert bus.admits(TransferStarted, "anything")
    bus.sampling = SamplingPolicy.firehose(1e-9)
    assert not any(bus.admits(TransferStarted, index) for index in range(100))


# -- pre-sample taps: exact consumers never read sampled families ----------------


def test_sampled_families_are_disjoint_from_every_exact_consumer():
    """The exactness contracts (byte conservation, telemetry, forensics
    default window) hold under any sampling rate because their inputs
    are never sampled."""
    sampled = set(SAMPLED_EVENT_FAMILIES)
    monitors = InvariantMonitors(EventBus())
    assert sampled.isdisjoint(monitors._dispatch.keys())
    monitors.close()
    assert sampled.isdisjoint(PROTOCOL_EVENTS)
    assert sampled.isdisjoint(DEFAULT_WINDOW_EVENTS)


def test_monitors_stay_clean_under_aggressive_sampling():
    from repro.analysis.scale import _build_session

    scenario = ScaleScenario()
    session = _build_session(500, scenario)
    session.sim.bus.sampling = SamplingPolicy.firehose(0.05)
    monitors = InvariantMonitors(session.sim.bus)
    session.run_iteration()
    assert monitors.violations == []
    monitors.close()


# -- sampled replay determinism --------------------------------------------------


def _observed_run(population=500):
    scenario = ScaleScenario(observed=True, event_sample_rate=0.25)
    point = run_scale_point(population, scenario)
    manifest = scale_manifest([point], scenario)
    counters = {
        name: value for name, value in manifest.counters.items()
        if not name.endswith("wall_per_iteration")
    }
    return manifest.fingerprint, counters, point


def test_sampled_observed_replay_is_byte_identical():
    fp_a, counters_a, point_a = _observed_run()
    fp_b, counters_b, point_b = _observed_run()
    assert fp_a == fp_b
    assert counters_a == counters_b
    assert point_a.telemetry_peak_bytes == point_b.telemetry_peak_bytes > 0
    assert point_a.events_observed == point_b.events_observed > 0


def test_sampling_rate_enters_the_scenario_fingerprint():
    base = scale_manifest([], ScaleScenario(observed=True,
                                            event_sample_rate=0.25))
    other = scale_manifest([], ScaleScenario(observed=True,
                                             event_sample_rate=0.5))
    unobserved = scale_manifest([], ScaleScenario())
    assert base.fingerprint != other.fingerprint
    assert base.fingerprint != unobserved.fingerprint


def test_session_fingerprint_records_the_sampling_policy():
    from repro.analysis.scale import _build_session

    scenario = ScaleScenario()
    plain = _build_session(200, scenario).fingerprint()
    sampled_session = _build_session(200, scenario)
    sampled_session.sim.bus.sampling = SamplingPolicy.firehose(0.25)
    sampled = sampled_session.fingerprint()
    assert plain != sampled


def test_sampling_reduces_observed_events():
    full = run_scale_point(500, ScaleScenario(observed=True))
    thinned = run_scale_point(
        500, ScaleScenario(observed=True, event_sample_rate=0.25))
    assert 0 < thinned.events_observed < full.events_observed


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


def test_reporter_never_touches_the_simulated_clock():
    from repro.analysis.scale import _build_session

    scenario = ScaleScenario()
    bare = _build_session(200, scenario)
    bare.run_iteration()
    watched = _build_session(200, scenario)
    reporter = ProgressReporter(watched.sim.bus, stream=None,
                                jsonl=io.StringIO(), interval=1e-9,
                                clock=FakeWallClock(tick=1e-6))
    watched.run_iteration()
    reporter.close()
    assert reporter.heartbeats > 0
    assert watched.sim.now == bare.sim.now
    assert watched.fingerprint() == bare.fingerprint()
