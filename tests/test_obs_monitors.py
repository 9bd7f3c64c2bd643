"""Tests for the online invariant monitors (repro.obs.monitors)."""

import pytest

from repro.core import FLSession, ProtocolConfig
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile
from repro.obs import EventBus, InvariantMonitors
from repro.obs.events import (
    BlockEvicted,
    BlockFetched,
    BlockStored,
    BytesReceived,
    GradientRegistered,
    GradientsAggregated,
    InvariantViolated,
    IterationStarted,
    MergeServed,
    PartialUpdateRegistered,
    SnapshotSealed,
    SyncPhaseEnded,
    TrainerCompleted,
    UpdateRegistered,
    UploadCompleted,
)


def make_session(**overrides):
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    kwargs = dict(num_partitions=1, t_train=400.0, t_sync=800.0,
                  update_mode="gradient", poll_interval=0.25)
    kwargs.update(overrides)
    config = ProtocolConfig(**kwargs)
    return FLSession(
        config,
        lambda: LogisticRegression(num_features=8, num_classes=2, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
    )


def invariants(monitors):
    return {violation.invariant for violation in monitors.violations}


# -- honest end-to-end runs are clean --------------------------------------------


def test_honest_run_is_clean():
    session = make_session(verifiable=True)
    monitors = InvariantMonitors(session.sim.bus)
    session.run(rounds=2)
    assert monitors.finalize() == []
    assert monitors.clean


def test_honest_merge_and_download_run_is_clean():
    session = make_session(merge_and_download=True,
                           providers_per_aggregator=2)
    monitors = InvariantMonitors(session.sim.bus)
    session.run(rounds=2)
    assert monitors.finalize() == []


def test_finalize_is_idempotent_and_detaches():
    session = make_session()
    monitors = InvariantMonitors(session.sim.bus)
    session.run(rounds=1)
    first = monitors.finalize()
    assert monitors.finalize() is first
    # Detached: later events don't reach the monitors.
    session.sim.bus.publish(UploadCompleted(
        at=0.0, iteration=99, trainer="ghost", delay=0.0))
    assert monitors.violations == first


# -- synthetic violations on a bare bus ------------------------------------------


def test_clock_regression_is_flagged():
    bus = EventBus()
    monitors = InvariantMonitors(bus)
    bus.publish(IterationStarted(at=5.0, iteration=0))
    bus.publish(IterationStarted(at=1.0, iteration=1))
    assert "clock-monotonic" in invariants(monitors)


def test_iteration_numbers_must_strictly_increase():
    bus = EventBus()
    monitors = InvariantMonitors(bus)
    bus.publish(IterationStarted(at=0.0, iteration=0))
    bus.publish(IterationStarted(at=1.0, iteration=0))
    assert "iteration-monotonic" in invariants(monitors)


def test_actor_cannot_report_for_an_older_iteration():
    bus = EventBus()
    monitors = InvariantMonitors(bus)
    bus.publish(TrainerCompleted(at=0.0, iteration=3, trainer="t0"))
    bus.publish(GradientRegistered(at=1.0, iteration=1, uploader="t0",
                                   partition_id=0))
    assert "iteration-monotonic" in invariants(monitors)


@pytest.mark.parametrize("event", [
    UploadCompleted(at=1.0, iteration=0, trainer="t0", delay=0.5),
    UpdateRegistered(at=1.0, iteration=0, aggregator="a0",
                     partition_id=0),
    SyncPhaseEnded(at=1.0, iteration=0, aggregator="a0", duration=0.1),
    PartialUpdateRegistered(at=1.0, iteration=0, aggregator="a0",
                            partition_id=0),
    TrainerCompleted(at=1.0, iteration=0, trainer="t0"),
])
def test_out_of_order_protocol_step_is_flagged(event):
    bus = EventBus()
    monitors = InvariantMonitors(bus)
    bus.publish(IterationStarted(at=0.0, iteration=0))
    bus.publish(event)  # each lacks its causal predecessor
    assert "protocol-ordering" in invariants(monitors)


def test_ordered_protocol_steps_are_clean():
    bus = EventBus()
    monitors = InvariantMonitors(bus)
    bus.publish(IterationStarted(at=0.0, iteration=0))
    bus.publish(GradientRegistered(at=1.0, iteration=0, uploader="t0",
                                   partition_id=0))
    bus.publish(UploadCompleted(at=2.0, iteration=0, trainer="t0",
                                delay=0.5))
    bus.publish(GradientsAggregated(at=3.0, iteration=0,
                                    aggregator="a0", partition_id=0))
    bus.publish(UpdateRegistered(at=4.0, iteration=0, aggregator="a0",
                                 partition_id=0))
    bus.publish(TrainerCompleted(at=5.0, iteration=0, trainer="t0"))
    assert monitors.violations == []


def test_byte_conservation_mismatch_is_flagged():
    bus = EventBus()
    monitors = InvariantMonitors(bus)
    bus.publish(IterationStarted(at=0.0, iteration=0))
    bus.publish(BlockFetched(at=1.0, client="a0", node="n0",
                             cid="c1", size=100))
    bus.publish(BytesReceived(at=2.0, iteration=0, participant="a0",
                              amount=250.0))
    violations = [v for v in monitors.violations
                  if v.invariant == "byte-conservation"]
    assert len(violations) == 1
    assert violations[0].subject == "a0"


def test_byte_conservation_exact_report_is_clean():
    bus = EventBus()
    monitors = InvariantMonitors(bus)
    bus.publish(IterationStarted(at=0.0, iteration=0))
    bus.publish(BlockFetched(at=1.0, client="a0", node="n0",
                             cid="c1", size=100))
    bus.publish(BlockFetched(at=1.5, client="a0", node="n1",
                             cid="c2", size=150))
    bus.publish(BytesReceived(at=2.0, iteration=0, participant="a0",
                              amount=250.0))
    assert monitors.violations == []


def test_violations_republish_on_the_bus():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append, InvariantViolated)
    monitors = InvariantMonitors(bus)
    bus.publish(IterationStarted(at=0.0, iteration=0))
    bus.publish(IterationStarted(at=1.0, iteration=0))
    assert len(monitors.violations) == 1
    assert seen == monitors.violations


def test_peer_violations_are_not_rechecked():
    """A second monitor on the same bus must not recurse on the first
    monitor's InvariantViolated output."""
    bus = EventBus()
    first = InvariantMonitors(bus)
    second = InvariantMonitors(bus)
    bus.publish(IterationStarted(at=0.0, iteration=0))
    bus.publish(IterationStarted(at=1.0, iteration=0))
    assert len(first.violations) == 1
    assert len(second.violations) == 1


# -- blockstore leak detection ---------------------------------------------------


def test_unconsumed_block_is_a_leak():
    bus = EventBus()
    monitors = InvariantMonitors(bus)
    bus.publish(BlockStored(at=0.0, node="n0", cid="orphan", size=64))
    violations = monitors.finalize()
    assert [v.invariant for v in violations] == ["blockstore-leak"]
    assert "orphan" in violations[0].detail


@pytest.mark.parametrize("consume", [
    lambda bus: bus.publish(BlockFetched(
        at=1.0, client="t0", node="n0", cid="cid-x", size=64)),
    lambda bus: bus.publish(MergeServed(
        at=1.0, node="n0", cids=("cid-x",), size=64)),
    lambda bus: bus.publish(BlockEvicted(
        at=1.0, node="n0", cid="cid-x", size=64)),
    lambda bus: bus.publish(SnapshotSealed(
        at=1.0, iteration=0, partition_id=0, node="n0", cid="cid-x")),
])
def test_consumed_blocks_are_not_leaks(consume):
    bus = EventBus()
    monitors = InvariantMonitors(bus)
    bus.publish(BlockStored(at=0.0, node="n0", cid="cid-x", size=64))
    consume(bus)
    assert monitors.finalize() == []


def test_session_with_gc_stays_leak_free():
    """After collect_garbage, evicted never-fetched blocks count as
    consumed, so a full run + GC audits clean."""
    session = make_session()
    monitors = InvariantMonitors(session.sim.bus)
    session.run(rounds=2)
    session.collect_garbage(keep_iterations=1)
    assert monitors.finalize() == []
