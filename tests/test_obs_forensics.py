"""Tests for the flight recorder and blame classifier (repro.obs.forensics).

The adversary-catch matrix: every misbehaviour in
:mod:`repro.core.adversary` must (a) be *detected* by directory
verification and (b) be *classified* correctly by the blame report,
naming the guilty aggregator and the affected trainers.

The sessions use :class:`~repro.ml.LogisticRegression` on real data —
the synthetic model's gradients are constant, which would make a
replayed aggregate value-identical and hence undetectable by design.
"""

import json

import pytest

from repro.core import FLSession, ProtocolConfig
from repro.core.adversary import (
    AlterUpdateBehavior,
    DropGradientsBehavior,
    LazyBehavior,
    ReplayUpdateBehavior,
)
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile
from repro.obs import (
    EventBus,
    FlightRecorder,
    InvariantMonitors,
)
from repro.obs.events import InvariantViolated, IterationStarted
from repro.obs.forensics import MAX_INCIDENTS, RING_CAPACITY

NUM_TRAINERS = 4
TRAINERS = tuple(f"trainer-{i}" for i in range(NUM_TRAINERS))


def run_with_recorder(behavior=None, rounds=1):
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, NUM_TRAINERS, seed=0)
    config = ProtocolConfig(num_partitions=1, t_train=400.0, t_sync=800.0,
                            update_mode="gradient", verifiable=True,
                            poll_interval=0.25)
    behaviors = {"aggregator-0": behavior} if behavior else None
    session = FLSession(
        config,
        lambda: LogisticRegression(num_features=8, num_classes=2, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
        behaviors=behaviors,
    )
    recorder = FlightRecorder(session.sim.bus)
    monitors = InvariantMonitors(session.sim.bus)
    for _ in range(rounds):
        session.run_iteration()
    monitors.finalize()
    recorder.close()
    return recorder


# -- the adversary-catch matrix --------------------------------------------------


def test_honest_run_seals_nothing():
    recorder = run_with_recorder(rounds=2)
    assert recorder.incidents == []
    assert recorder.suppressed == 0


@pytest.mark.parametrize("behavior,rounds,classification,dropped", [
    (DropGradientsBehavior(keep_fraction=0.5), 1, "dropped",
     TRAINERS[2:]),                    # keeps sorted()[:2] -> drops 2, 3
    (AlterUpdateBehavior(offset=1.0), 1, "altered", ()),
    (LazyBehavior(), 1, "lazy", TRAINERS[1:]),  # keeps only trainer-0
    (ReplayUpdateBehavior(), 2, "replayed", TRAINERS),
], ids=["drop", "alter", "lazy", "replay"])
def test_misbehaviour_is_caught_and_classified(behavior, rounds,
                                               classification, dropped):
    recorder = run_with_recorder(behavior, rounds=rounds)
    assert recorder.incidents, f"{behavior.name} went undetected"
    bundle = recorder.incidents[0]
    assert bundle.kind == "verification_failed"
    blame = bundle.blame
    assert blame is not None
    assert blame.aggregator == "aggregator-0"
    assert blame.partition_id == 0
    assert blame.classification == classification
    assert blame.dropped_trainers == dropped
    # Every named trainer comes with its partition CID for retrieval.
    assert len(blame.dropped_cids) == len(dropped)
    assert all(blame.dropped_cids)


def test_drop_blame_names_the_exact_complement():
    recorder = run_with_recorder(DropGradientsBehavior(keep_fraction=0.5))
    blame = recorder.incidents[0].blame
    assert blame.kept_trainers == TRAINERS[:2]
    assert blame.expected_count == NUM_TRAINERS
    assert blame.claimed_counter == pytest.approx(2.0)


def test_replay_blame_points_at_the_stale_round():
    recorder = run_with_recorder(ReplayUpdateBehavior(), rounds=2)
    bundle = recorder.incidents[0]
    assert bundle.iteration == 1
    assert "iteration 0" in bundle.blame.detail


# -- incident bundle contents ----------------------------------------------------


def test_bundle_window_contains_the_trigger():
    recorder = run_with_recorder(DropGradientsBehavior(keep_fraction=0.5))
    bundle = recorder.incidents[0]
    assert bundle.events[-1] is bundle.trigger
    assert bundle.sealed_at == bundle.trigger.at


def test_bundle_has_span_tree_and_perfetto_slice():
    recorder = run_with_recorder(DropGradientsBehavior(keep_fraction=0.5))
    bundle = recorder.incidents[0]
    assert bundle.span_tree is not None
    assert bundle.span_tree.iteration == bundle.iteration
    trace = bundle.perfetto()
    assert trace["traceEvents"], "empty Perfetto slice"


def test_bundle_serializes_to_json(tmp_path):
    recorder = run_with_recorder(DropGradientsBehavior(keep_fraction=0.5))
    bundle = recorder.incidents[0]
    path = tmp_path / "incident.json"
    bundle.write(str(path))
    loaded = json.loads(path.read_text())
    assert loaded["kind"] == "verification_failed"
    assert loaded["blame"]["classification"] == "dropped"
    assert loaded["blame"]["dropped_trainers"] == list(TRAINERS[2:])
    assert loaded["trigger"]["event"] == "VerificationFailed"
    assert len(loaded["events"]) == len(bundle.events)
    assert loaded["perfetto"]["traceEvents"]


def test_summary_names_the_accused_and_dropped():
    recorder = run_with_recorder(DropGradientsBehavior(keep_fraction=0.5))
    text = recorder.incidents[0].summary()
    assert "aggregator-0" in text
    assert "dropped" in text
    assert "trainer-2" in text and "trainer-3" in text


# -- ring buffer and incident-cap mechanics --------------------------------------


def test_ring_buffer_is_bounded():
    bus = EventBus()
    recorder = FlightRecorder(bus)
    for i in range(RING_CAPACITY + 1):
        bus.publish(IterationStarted(at=float(i), iteration=i))
    assert len(recorder.window) == RING_CAPACITY
    assert recorder.window[0].iteration == 1


def test_default_window_leaves_out_the_firehose():
    from repro.obs.events import (
        DirectoryRequest,
        GradientRegistered,
        TransferCompleted,
        TransferStarted,
    )
    from repro.obs.forensics import WINDOW_EVENTS

    bus = EventBus()
    recorder = FlightRecorder(bus)
    bus.publish(TransferStarted(at=1.0, src="a", dst="b", size=1.0))
    bus.publish(DirectoryRequest(at=1.0, kind="dir.lookup"))
    bus.publish(IterationStarted(at=1.0, iteration=0))
    assert [type(event) for event in recorder.window] == [IterationStarted]
    assert GradientRegistered in WINDOW_EVENTS
    assert not {TransferStarted, TransferCompleted, DirectoryRequest} \
        & set(WINDOW_EVENTS)


def test_incident_cap_suppresses_overflow():
    bus = EventBus()
    recorder = FlightRecorder(bus)
    for i in range(MAX_INCIDENTS + 3):
        bus.publish(InvariantViolated(
            at=float(i), iteration=0, invariant="clock-monotonic",
            subject="x", detail="synthetic"))
    assert len(recorder.incidents) == MAX_INCIDENTS
    assert recorder.suppressed == 3


def test_invariant_incident_has_no_blame():
    bus = EventBus()
    recorder = FlightRecorder(bus)
    bus.publish(InvariantViolated(
        at=1.0, iteration=0, invariant="byte-conservation",
        subject="a0", detail="synthetic"))
    bundle = recorder.incidents[0]
    assert bundle.kind == "invariant_violated"
    assert bundle.blame is None
    assert bundle.to_dict()["blame"] is None


def test_monitor_violation_reaches_a_recorder_subscribed_first():
    """The documented wiring order: recorder first, then monitors; the
    monitor's violation must land in the recorder as an incident whose
    window still holds the offending event."""
    bus = EventBus()
    recorder = FlightRecorder(bus)
    monitors = InvariantMonitors(bus)
    bus.publish(IterationStarted(at=5.0, iteration=0))
    bus.publish(IterationStarted(at=1.0, iteration=1))  # clock regression
    assert monitors.violations
    assert len(recorder.incidents) == 1
    bundle = recorder.incidents[0]
    assert bundle.kind == "invariant_violated"
    kinds = [type(event).__name__ for event in bundle.events]
    assert "IterationStarted" in kinds
