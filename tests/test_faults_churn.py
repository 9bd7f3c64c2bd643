"""Churn matrix: the Fig. 1-style protocol under injected faults.

The paper's Algorithm 1 carries explicit dropout machinery (t_train /
t_sync deadlines, takeover after ``takeover_grace``); these tests make
the machinery actually fire: a trainer crash before upload, an
aggregator crash mid-collect forcing a peer takeover, and a 30 s link
outage ridden out by the shared retry policy — each asserting the run
completes, the surviving trainers stay in consensus, and the invariant
monitors report zero violations.  A final test pins the replay
guarantee: the same ``FaultPlan`` yields a byte-identical
``RunManifest``.
"""

import numpy as np

from repro import (
    FaultPlan,
    FLSession,
    NetworkProfile,
    ProtocolConfig,
)
from repro.faults.plan import FaultSpec
from repro.obs import InvariantMonitors, MetricsRegistry, RunManifest
from repro.ml import Dataset, LogisticRegression, SyntheticModel, \
    make_classification, split_iid
from repro.obs.events import TakeoverPerformed
from tests.util import PatientRetry, set_ipfs_timeout


def dummy_datasets(count):
    return [Dataset(np.full((1, 1), float(i + 1)), np.zeros(1))
            for i in range(count)]


def make_shards(num_trainers=4, seed=0):
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=seed)
    return split_iid(data, num_trainers, seed=seed)


def factory():
    return LogisticRegression(num_features=8, num_classes=2, seed=0)


def finalize_clean(session, monitors):
    """End-of-run invariant check, reclaiming finished rounds first so
    the blockstore-leak monitor only sees truly abandoned storage."""
    session.collect_garbage(keep_iterations=0)
    violations = monitors.finalize()
    assert violations == [], [
        f"{v.invariant}: {v.subject}: {v.detail}" for v in violations
    ]


# -- (a) trainer crash pre-upload --------------------------------------------------


def test_trainer_crash_pre_upload_degrades_then_late_joins():
    shards = make_shards(4)
    config = ProtocolConfig(num_partitions=2, t_train=60.0, t_sync=300.0,
                            local_train_seconds=2.0)
    plan = FaultPlan([
        FaultSpec(kind="crash_trainer", at=0.5, target="trainer-1",
                  duration=10.0)],
        seed=1,
    )
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4),
                        faults=plan)
    monitors = InvariantMonitors(session.sim.bus)

    first = session.run_iteration()
    # trainer-1 was still training (local_train_seconds=2.0 > 0.5) when
    # the crash hit, so it lost the whole round...
    assert sorted(first.trainers_completed) == [
        "trainer-0", "trainer-2", "trainer-3",
    ]
    assert first.degraded.get("trainer-1") == "crashed (fault injection)"

    # ...but the fault healed at t=10.5, so it late-joins round 2.
    second = session.run_iteration()
    assert sorted(second.trainers_completed) == [
        f"trainer-{i}" for i in range(4)
    ]
    assert "trainer-1" not in second.degraded

    finalize_clean(session, monitors)
    session.consensus_params()


# -- (b) aggregator crash mid-collect ⇒ takeover -----------------------------------


def test_aggregator_crash_mid_collect_forces_takeover_and_converges():
    shards = make_shards(8)
    # local_train_seconds=2.0 keeps gradients from arriving before the
    # crash at t=1.0 hits aggregator-0 mid-collect (it is polling the
    # directory with nothing collected yet).
    config = ProtocolConfig(num_partitions=2, aggregators_per_partition=2,
                            t_train=20.0, t_sync=120.0,
                            takeover_grace=5.0, local_train_seconds=2.0)
    plan = FaultPlan([
        FaultSpec(kind="crash_aggregator", at=1.0, target="aggregator-0")],
        seed=2,
    )
    session = FLSession(config, factory, shards,
                        network=NetworkProfile(num_ipfs_nodes=4),
                        faults=plan)
    monitors = InvariantMonitors(session.sim.bus)
    takeovers = []
    session.sim.bus.subscribe(takeovers.append, TakeoverPerformed)

    metrics = session.run_iteration()

    # The peer demonstrably took over the crashed aggregator's trainers.
    assert any(event.peer == "aggregator-0" for event in takeovers)
    assert "aggregator-0" in metrics.takeovers
    assert metrics.degraded.get("aggregator-0") \
        == "crashed (fault injection)"
    # No trainer lost the round: the takeover covered them all.
    assert len(metrics.trainers_completed) == 8

    finalize_clean(session, monitors)

    # Convergence: every trainer holds the full 8-trainer average.
    reference = session.consensus_params()
    assert np.isfinite(reference).all()


# -- (c) link outage ridden out by retries ------------------------------------------


def test_link_outage_recovers_with_retries():
    shards = make_shards(4)
    config = ProtocolConfig(num_partitions=2, t_train=200.0, t_sync=400.0)
    plan = FaultPlan([
        FaultSpec(kind="link_down", at=3.0, target="trainer-2",
                  duration=30.0)],
        seed=3,
    )
    # Tight per-attempt timeouts + a retry budget whose backoff spans the
    # whole 30 s outage, so trainer-2 degrades-and-recovers instead of
    # wedging on a dead link.
    profile = NetworkProfile(num_ipfs_nodes=4, retry=PatientRetry(),
                             directory_request_timeout=5.0)
    session = FLSession(config, factory, shards, network=profile,
                        faults=plan)
    set_ipfs_timeout(session, 10.0)
    monitors = InvariantMonitors(session.sim.bus)

    first = session.run_iteration()
    assert first.finished_at > first.started_at  # the round terminated
    # trainer-2 either rode the outage out within round 1 or lost it;
    # either way it must not have wedged the session.
    assert ("trainer-2" in first.trainers_completed
            or "trainer-2" in first.degraded)

    # The outage healed at t=33.0, long before round 2: full strength.
    second = session.run_iteration()
    assert sorted(second.trainers_completed) == [
        f"trainer-{i}" for i in range(4)
    ]

    finalize_clean(session, monitors)
    session.consensus_params()


def test_round_starts_without_a_participant_whose_link_is_down():
    """An outage spanning a round boundary degrades the dark participant
    for the round it cannot be told about; the round runs for the rest."""
    config = ProtocolConfig(num_partitions=2, t_train=60.0, t_sync=120.0,
                            update_mode="params", seed=1,
                            poll_interval=0.25)
    plan = FaultPlan([FaultSpec(kind="link_down", at=0.6, duration=1000.0,
                                target="trainer-2")])
    session = FLSession(config, lambda: SyntheticModel(2000),
                        dummy_datasets(4),
                        network=NetworkProfile(num_ipfs_nodes=4),
                        faults=plan)

    first = session.run_iteration()
    assert "trainer-2" in first.degraded
    assert not session.testbed.network.host_online("trainer-2")
    second = session.run_iteration()
    assert second.degraded == {"trainer-2": "unreachable at round start"}
    assert sorted(second.trainers_completed) == [
        "trainer-0", "trainer-1", "trainer-3",
    ]


def test_link_down_while_the_announcement_is_in_flight():
    """The link goes down after the round checked it but before the
    96-byte schedule arrived: the participant was never told the
    schedule, so it sits the round out like one that was dark at the
    start — the round itself must not abort."""
    config = ProtocolConfig(num_partitions=2, t_train=60.0, t_sync=120.0,
                            update_mode="params", seed=1,
                            poll_interval=0.25)
    plan = FaultPlan([FaultSpec(kind="link_down", at=1e-5, duration=5.0,
                                target="trainer-0")])
    session = FLSession(config, lambda: SyntheticModel(2000),
                        dummy_datasets(4),
                        network=NetworkProfile(num_ipfs_nodes=4),
                        faults=plan)

    first = session.run_iteration()
    assert first.degraded == {"trainer-0": "unreachable at round start"}
    assert sorted(first.trainers_completed) == [
        "trainer-1", "trainer-2", "trainer-3",
    ]
    # The outage healed at t = 5: trainer-0 late-joins the next round.
    second = session.run_iteration()
    assert second.degraded == {}
    assert len(second.trainers_completed) == 4


# -- determinism -------------------------------------------------------------


def test_same_fault_plan_seed_gives_byte_identical_manifest():
    def run_once() -> str:
        shards = make_shards(4)
        config = ProtocolConfig(num_partitions=2, t_train=60.0,
                                t_sync=300.0)
        plan = FaultPlan([
            FaultSpec(kind="crash_trainer", at=0.5, target="trainer-1",
                      duration=10.0),
            FaultSpec(kind="directory_brownout", at=1.0,
                      processing_delay=1.0, duration=10.0),
            FaultSpec(kind="link_down", at=2.0, target="trainer-2",
                      duration=30.0)],
            seed=11,
        )
        session = FLSession(config, factory, shards,
                            network=NetworkProfile(num_ipfs_nodes=4),
                            faults=plan)
        registry = MetricsRegistry(session.sim.bus)
        session.run(rounds=2)
        registry.close()
        manifest = RunManifest.collect(registry, session.fingerprint())
        return manifest.to_json()

    assert run_once() == run_once()
