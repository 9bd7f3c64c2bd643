"""TelemetryCollector, derived-metric edge cases, and archive round-trips."""

import pytest

from repro.obs.telemetry import IterationMetrics, SessionMetrics
from repro.obs import EventBus, TelemetryCollector
from repro.obs.events import (
    BytesReceived,
    CommitmentComputed,
    GradientRegistered,
    GradientsAggregated,
    IterationFinished,
    IterationStarted,
    SyncPhaseEnded,
    TakeoverPerformed,
    TrainerCompleted,
    UpdateRegistered,
    UploadCompleted,
    VerificationFailed,
)


@pytest.fixture()
def bus():
    return EventBus()


@pytest.fixture()
def collector(bus):
    return TelemetryCollector(bus)


def open_iteration(bus, iteration=0, at=0.0):
    bus.publish(IterationStarted(at=at, iteration=iteration))


# -- collector behaviour ---------------------------------------------------------


def test_iteration_lifecycle(bus, collector):
    open_iteration(bus, at=10.0)
    bus.publish(IterationFinished(at=25.0, iteration=0))
    [metrics] = collector.session.iterations
    assert metrics.iteration == 0
    assert metrics.started_at == 10.0
    assert metrics.finished_at == 25.0
    assert metrics.duration == 15.0


def test_session_object_is_stable(bus, collector):
    session = collector.session
    open_iteration(bus)
    assert collector.session is session
    assert collector.metrics is session


def test_events_before_start_are_dropped(bus, collector):
    bus.publish(TrainerCompleted(at=1.0, iteration=0, trainer="trainer-0"))
    assert collector.session.iterations == []


def test_events_after_finish_are_dropped(bus, collector):
    open_iteration(bus)
    bus.publish(IterationFinished(at=5.0, iteration=0))
    bus.publish(VerificationFailed(at=6.0, iteration=0, label="late",
                                   scope="update"))
    [metrics] = collector.session.iterations
    assert metrics.verification_failures == []


def test_events_route_by_iteration(bus, collector):
    open_iteration(bus, iteration=0)
    bus.publish(IterationFinished(at=5.0, iteration=0))
    open_iteration(bus, iteration=1, at=5.0)
    bus.publish(TrainerCompleted(at=6.0, iteration=1, trainer="trainer-3"))
    bus.publish(TrainerCompleted(at=6.0, iteration=0, trainer="trainer-9"))
    first, second = collector.session.iterations
    assert first.trainers_completed == []
    assert second.trainers_completed == ["trainer-3"]


def test_first_gradient_wins(bus, collector):
    open_iteration(bus)
    bus.publish(GradientRegistered(at=3.0, iteration=0,
                                   uploader="trainer-0", partition_id=0))
    bus.publish(GradientRegistered(at=7.0, iteration=0,
                                   uploader="trainer-1", partition_id=1))
    assert collector.session.iterations[0].first_gradient_at == 3.0


def test_bytes_and_commit_seconds_accumulate(bus, collector):
    open_iteration(bus)
    for amount in (100.0, 250.0):
        bus.publish(BytesReceived(at=1.0, iteration=0,
                                  participant="aggregator-0", amount=amount))
    for seconds in (0.5, 0.25):
        bus.publish(CommitmentComputed(at=1.0, iteration=0,
                                       participant="trainer-0",
                                       seconds=seconds))
    [metrics] = collector.session.iterations
    assert metrics.bytes_received["aggregator-0"] == 350.0
    assert metrics.commit_seconds["trainer-0"] == 0.75


def test_assignment_semantics_overwrite(bus, collector):
    open_iteration(bus)
    for at in (4.0, 9.0):
        bus.publish(GradientsAggregated(at=at, iteration=0,
                                        aggregator="aggregator-0"))
        bus.publish(UpdateRegistered(at=at, iteration=0,
                                     aggregator="aggregator-0",
                                     partition_id=0))
    bus.publish(UploadCompleted(at=2.0, iteration=0, trainer="trainer-0",
                                delay=1.5))
    bus.publish(SyncPhaseEnded(at=8.0, iteration=0,
                               aggregator="aggregator-0", duration=3.0))
    [metrics] = collector.session.iterations
    assert metrics.gradients_aggregated_at["aggregator-0"] == 9.0
    assert metrics.update_registered_at["aggregator-0"] == 9.0
    assert metrics.upload_delays["trainer-0"] == 1.5
    assert metrics.sync_delays["aggregator-0"] == 3.0


def test_list_fields_append(bus, collector):
    open_iteration(bus)
    bus.publish(TakeoverPerformed(at=1.0, iteration=0,
                                  aggregator="aggregator-1",
                                  peer="aggregator-0"))
    bus.publish(VerificationFailed(at=2.0, iteration=0, label="bad",
                                   scope="trainer"))
    [metrics] = collector.session.iterations
    assert metrics.takeovers == ["aggregator-0"]
    assert metrics.verification_failures == ["bad"]


def test_close_stops_collection_but_keeps_history(bus, collector):
    open_iteration(bus)
    bus.publish(IterationFinished(at=1.0, iteration=0))
    collector.close()
    open_iteration(bus, iteration=1, at=1.0)
    assert len(collector.session.iterations) == 1


# -- derived-property edge cases (empty / partial iterations) --------------------


def test_empty_iteration_yields_none_everywhere():
    metrics = IterationMetrics(iteration=0)
    assert metrics.aggregation_delay is None
    assert metrics.sync_delay is None
    assert metrics.total_aggregation_delay is None
    assert metrics.collection_time is None
    assert metrics.end_to_end_delay is None
    assert metrics.mean_upload_delay is None
    assert metrics.mean_bytes_received is None
    assert metrics.duration == 0.0


def test_aggregation_delay_requires_first_gradient():
    metrics = IterationMetrics(
        iteration=0, gradients_aggregated_at={"aggregator-0": 12.0}
    )
    # Aggregations recorded but no registration timestamp: undefined.
    assert metrics.aggregation_delay is None
    assert metrics.total_aggregation_delay is None
    # Collection time does not depend on the directory, so it exists.
    assert metrics.collection_time == 12.0


def test_single_aggregator_delays():
    metrics = IterationMetrics(
        iteration=0,
        started_at=1.0,
        first_gradient_at=2.0,
        gradients_aggregated_at={"aggregator-0": 5.0},
        update_registered_at={"aggregator-0": 8.0},
        sync_delays={"aggregator-0": 3.0},
    )
    assert metrics.aggregation_delay == 3.0
    assert metrics.total_aggregation_delay == 6.0
    assert metrics.collection_time == 4.0
    assert metrics.end_to_end_delay == 7.0
    assert metrics.sync_delay == 3.0


def test_delays_use_slowest_aggregator():
    metrics = IterationMetrics(
        iteration=0,
        first_gradient_at=0.0,
        gradients_aggregated_at={"aggregator-0": 4.0, "aggregator-1": 9.0},
        update_registered_at={"aggregator-0": 10.0, "aggregator-1": 6.0},
    )
    assert metrics.aggregation_delay == 9.0
    assert metrics.total_aggregation_delay == 10.0


def test_means_average_over_participants():
    metrics = IterationMetrics(
        iteration=0,
        upload_delays={"trainer-0": 1.0, "trainer-1": 3.0},
        bytes_received={"aggregator-0": 100.0, "aggregator-1": 300.0},
    )
    assert metrics.mean_upload_delay == 2.0
    assert metrics.mean_bytes_received == 200.0


def test_session_latest_and_mean():
    session = SessionMetrics()
    with pytest.raises(IndexError):
        session.latest()
    session.iterations.append(IterationMetrics(iteration=0))  # all None
    session.iterations.append(IterationMetrics(
        iteration=1, upload_delays={"trainer-0": 4.0}))
    assert session.latest().iteration == 1
    # None iterations are skipped, not averaged as zero.
    assert session.mean_over_iterations("mean_upload_delay") == 4.0
    assert session.mean_over_iterations("sync_delay") is None


# -- archive round-trip ----------------------------------------------------------


def full_metrics():
    return IterationMetrics(
        iteration=2,
        started_at=10.0,
        finished_at=50.0,
        upload_delays={"trainer-0": 1.25},
        first_gradient_at=12.0,
        gradients_aggregated_at={"aggregator-0": 30.0},
        update_registered_at={"aggregator-0": 40.0},
        bytes_received={"aggregator-0": 4096.0},
        sync_delays={"aggregator-0": 5.0},
        commit_seconds={"trainer-0": 0.125},
        verification_failures=["bad-entry"],
        trainers_completed=["trainer-0"],
        takeovers=["aggregator-1"],
    )


def test_iteration_metrics_from_dict_roundtrip():
    original = full_metrics()
    rebuilt = IterationMetrics.from_dict(original.to_dict())
    assert rebuilt == original
    assert rebuilt.to_dict() == original.to_dict()


def test_from_dict_recomputes_derived_values():
    snapshot = full_metrics().to_dict()
    snapshot["aggregation_delay"] = -999.0  # tampered derived value
    rebuilt = IterationMetrics.from_dict(snapshot)
    assert rebuilt.aggregation_delay == 18.0


def test_from_dict_tolerates_missing_optionals():
    metrics = IterationMetrics.from_dict({"iteration": 7})
    assert metrics.iteration == 7
    assert metrics.upload_delays == {}
    assert metrics.first_gradient_at is None


def test_session_metrics_json_roundtrip():
    session = SessionMetrics(iterations=[
        full_metrics(), IterationMetrics(iteration=3)
    ])
    rebuilt = SessionMetrics.from_json(session.to_json())
    assert rebuilt == session
    assert rebuilt.to_json() == session.to_json()
