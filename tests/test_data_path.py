"""The gradient data path touches each byte once.

Trainer → IPFS → aggregator → trainer: one loss-and-gradient pass per
trainer per round, one summation kernel with one accumulator, one copy
to encode, one vector to install, and a node that does not parse the
manifests it wrote.  Bytes on the wire are unchanged, so the old
formulas live on here as the oracles.  Counts and traced bytes only: no
host timing.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import FLSession, NetworkProfile, ProtocolConfig
from repro.core import encode_partition, sum_encoded_partitions
from repro.ipfs import CID, MergeError, sum_f64
from repro.ipfs import node as ipfs_node
from repro.ipfs.block import Block, chunk_object, parse_manifest
from repro.ml import (Dataset, LogisticRegression, MLPClassifier, Model,
                      SyntheticModel, accuracy as accuracy_of,
                      make_classification, mean_loss, split_iid)
from repro.obs.events import TrainingEvaluated

from tests.util import make_ipfs_world, run_proc

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                     np.finfo(np.float64).max, -np.finfo(np.float64).max])


def _stacked_sum(blobs):
    """The summation the tree used to perform: materialise k × n, reduce."""
    views = [np.frombuffer(blob, dtype=np.float64) for blob in blobs]
    return np.sum(np.stack(views), axis=0).tobytes()


def _rows(k, n, seed, special_share):
    """k float64 rows of n values over 600 orders of magnitude (so the
    order of additions shows in the last bits), some of them special."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-300, 300,
                                                              (k, n))
    special = rng.random((k, n)) < special_share
    rows[special] = rng.choice(SPECIALS, int(special.sum()))
    return [row.tobytes() for row in rows]


# -- (a) one summation kernel --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 256), st.integers(2, 9), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.05, 0.5]))
@example(1, 2, 0, 1.0)
@example(256, 9, 1, 0.05)
@example(71, 700, 0, 0.0)
def test_sum_is_byte_equal_to_the_stacked_reduction(k, n, seed, specials):
    """For every blob a partition can be (values and a counter: n >= 2)."""
    blobs = _rows(k, n, seed, specials)
    with np.errstate(all="ignore"):  # inf - inf, overflow: on purpose
        expected = _stacked_sum(blobs)
        assert sum_f64(blobs) == expected
        assert sum_encoded_partitions(blobs) == expected


def test_single_float_blobs_add_in_the_order_given():
    """n = 1 is no partition, and the one shape where the stacked form
    did *not* add row by row (numpy reduces a contiguous column pairwise:
    k = 71, seed 0 differs in the last bit).  The kernel's contract is the
    order given, here too."""
    blobs = _rows(71, 1, seed=0, special_share=0.0)
    total = 0.0
    for blob in blobs:
        total += np.frombuffer(blob, dtype=np.float64)[0]
    assert sum_f64(blobs) == np.float64(total).tobytes()
    assert sum_f64(blobs) != _stacked_sum(blobs)


def test_a_lone_negative_zero_sums_to_zero_like_the_reduction():
    blob = np.array([-0.0, 1.0]).tobytes()
    assert sum_f64([blob]) == _stacked_sum([blob]) == np.array(
        [0.0, 1.0]).tobytes()


def test_both_entry_points_are_the_one_kernel(monkeypatch):
    assert ipfs_node.sum_f64 is sum_f64
    calls = []
    monkeypatch.setattr("repro.core.partition.sum_f64",
                        lambda blobs: calls.append(blobs) or b"kernel")
    assert sum_encoded_partitions([b"\0" * 16]) == b"kernel"
    assert calls == [[b"\0" * 16]]


def test_each_entry_point_keeps_its_error_type():
    short, long = np.zeros(3).tobytes(), np.zeros(4).tobytes()
    for blobs in ([short, long], [long, short, long], []):
        with pytest.raises(ValueError):
            sum_encoded_partitions(blobs)
        with pytest.raises(MergeError):
            sum_f64(blobs)


# -- (b) encode copies once ------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda base: base.copy(),
    lambda base: np.repeat(base, 3)[::3],                  # strided
    lambda base: np.frombuffer(base.tobytes(), np.float64),  # read-only
    lambda base: base.reshape(4, -1).T,                    # 2-D, F-ordered
], ids=["contiguous", "strided", "readonly", "transposed"])
def test_encode_equals_the_concatenated_form(make):
    values = make(np.random.default_rng(5).standard_normal(24))
    for counter in (1.0, 0.0, 17.0):
        assert encode_partition(values, counter) == np.concatenate(
            [np.asarray(values, dtype=np.float64).ravel(),
             [counter]]).tobytes()
    assert isinstance(encode_partition(values), bytes)


# -- (c) traced bytes ------------------------------------------------------------------


def _traced_peak(action):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = action()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_summing_holds_one_accumulator_not_a_stack():
    n = 1 << 20
    blobs = _rows(8, n // 8, seed=2, special_share=0.0)
    peak, total = _traced_peak(lambda: sum_f64(blobs))
    assert len(total) == n
    assert peak < 2.5 * n  # accumulator + result; the stack alone was 8 n


def _one_trainer_session(size, partitions=2, update_mode="gradient"):
    config = ProtocolConfig(
        num_partitions=partitions, t_train=600.0, t_sync=1200.0,
        poll_interval=0.25, seed=3, update_mode=update_mode)
    datasets = [Dataset(np.full((1, 1), 2.0), np.zeros(1))]
    return FLSession(
        config, lambda: SyntheticModel(size), datasets,
        network=NetworkProfile(num_ipfs_nodes=2, bandwidth_mbps=10.0))


@pytest.mark.parametrize("update_mode", ["gradient", "params"])
def test_install_allocates_the_vector_and_one_copy(update_mode):
    """What the trainer does with the fetched partitions of a P-byte
    model: one P-byte vector, divided into from the blobs' views, plus
    ``get_params``' copy — and the model keeps the vector."""
    size = 1 << 17
    session = _one_trainer_session(size, update_mode=update_mode)
    trainer = session.trainers[0]
    blobs = [encode_partition(values, 4.0) for values in
             trainer.partitioner.split(np.arange(size, dtype=np.float64))]
    before = trainer.model.get_params()

    def install():
        averaged = np.empty(size)
        for partition_id, blob in enumerate(blobs):
            start, end = trainer.partitioner.bounds(partition_id)
            view = np.frombuffer(blob, dtype=np.float64)
            np.divide(view[:-1], view[-1], out=averaged[start:end])
        trainer._install_update(averaged)
        return averaged

    peak, averaged = _traced_peak(install)
    assert peak < 3 * 8 * size
    assert np.shares_memory(trainer.model._params, averaged)
    expected = np.arange(size) / 4.0
    if update_mode == "gradient":
        expected = before - session.config.learning_rate * expected
    assert trainer.model.get_params().tobytes() == expected.tobytes()


def test_a_round_installs_what_the_seven_pass_formula_did():
    """End to end through the protocol: the model after one round is
    bit-equal to ``params - lr * (sum / counter)`` by the old formulas."""
    session = _one_trainer_session(4099, partitions=3)
    model = session.trainers[0].model
    _, gradient = model.loss_and_gradient(session.trainers[0].dataset.X, None)
    expected = model.get_params() - session.config.learning_rate * (
        np.concatenate([part / 1.0 for part in
                        session.trainers[0].partitioner.split(gradient)]))
    session.run_iteration()
    assert session.trainers[0].completed_iterations == 1
    assert model.get_params().tobytes() == expected.tobytes()


# -- (d) set_params adoption -------------------------------------------------------------


def test_set_params_copies_what_could_change_and_adopts_what_cannot():
    model = SyntheticModel(6)

    writable = np.arange(6.0)
    model.set_params(writable)
    writable[:] = -1.0
    assert model.get_params().tolist() == list(range(6))

    base = np.arange(6.0) + 10
    view = base.view()
    view.flags.writeable = False  # read-only, but `base` can still write
    model.set_params(view)
    base[:] = -1.0
    assert model.get_params().tolist() == [10, 11, 12, 13, 14, 15]

    frozen = np.arange(6.0) + 20
    frozen.flags.writeable = False
    model.set_params(frozen)
    assert np.shares_memory(model._params, frozen)  # adopted: no copy
    assert not model._params.flags.writeable
    params = model.get_params()
    assert params.flags.writeable and not np.shares_memory(params, frozen)
    params[:] = -1.0
    assert model.get_params().tolist() == [20, 21, 22, 23, 24, 25]

    with pytest.raises(ValueError):
        model.set_params(np.zeros(5))
    clone = model.clone()
    assert not np.shares_memory(clone._params, model._params)


def test_synthetic_gradient_is_bit_equal_to_the_three_temporary_form():
    for seed_value in (0.0, 3.0, -7.25, 1e9):
        _, gradient = SyntheticModel(1000).loss_and_gradient(
            np.full((1, 1), seed_value), None)
        assert gradient.tobytes() == (
            seed_value * 1e-6
            + np.arange(1000, dtype=np.float64) * 1e-9).tobytes()


# -- (e) the loss is computed once ---------------------------------------------------------


@pytest.mark.parametrize("update_mode,passes_per_trainer_round",
                         [("gradient", 1), ("params", None)])
@pytest.mark.parametrize("factory", [
    lambda: SyntheticModel(64),
    lambda: MLPClassifier(5, hidden=4, num_classes=3, seed=2),
    lambda: LogisticRegression(5, num_classes=3, seed=2),
], ids=["synthetic", "mlp", "logistic"])
def test_training_evaluated_costs_no_second_pass(
        monkeypatch, factory, update_mode, passes_per_trainer_round):
    data = make_classification(num_samples=120, num_features=5,
                               num_classes=3, seed=4)
    session = FLSession(
        ProtocolConfig(num_partitions=2, t_train=600.0, t_sync=1200.0,
                       poll_interval=0.25, seed=3, update_mode=update_mode),
        factory, split_iid(data, 3, seed=1),
        network=NetworkProfile(num_ipfs_nodes=2, bandwidth_mbps=10.0))
    trainers = {trainer.name: trainer for trainer in session.trainers}
    passes = []
    for cls in {type(trainer.model) for trainer in session.trainers}:
        original = cls.loss_and_gradient

        def counted(self, X, y, original=original):
            passes.append(self)
            return original(self, X, y)

        monkeypatch.setattr(cls, "loss_and_gradient", counted)

    seen = []

    def on_evaluated(event):
        # The model has not installed this round's update yet: evaluate
        # it here, and do not count the oracle's own pass.
        trainer = trainers[event.trainer]
        counted_so_far = len(passes)
        model, dataset = trainer.model, trainer.dataset
        seen.append((event, (
            mean_loss(model, dataset),
            accuracy_of(model, dataset) if hasattr(model, "num_classes")
            else None)))
        del passes[counted_so_far:]

    session.sim.bus.subscribe(on_evaluated, TrainingEvaluated)
    rounds = 2
    for _ in range(rounds):
        session.run_iteration()

    assert len(seen) == rounds * len(trainers)
    for event, (loss, accuracy) in seen:
        assert event.loss == loss and event.accuracy == accuracy
        assert (accuracy is None) == isinstance(
            trainers[event.trainer].model, SyntheticModel)
    if passes_per_trainer_round is not None:
        assert len(passes) == rounds * len(trainers) * passes_per_trainer_round
        assert all(isinstance(model, Model) for model in passes)


# -- (f) a node knows what it stored ---------------------------------------------------------


def test_built_and_rebuilt_roots_list_the_same_leaves():
    data = np.random.default_rng(1).bytes(1000)
    root, leaves = chunk_object(data, 256)
    assert root.links == tuple(leaf.cid for leaf in leaves)
    rebuilt = Block(root.data)  # as it arrives off the wire: bytes only
    assert rebuilt.links is None and rebuilt == root
    assert parse_manifest(rebuilt) == parse_manifest(root) == list(root.links)
    assert all(leaf.links is None for leaf in leaves)
    with pytest.raises(ValueError):
        parse_manifest(leaves[0])


def test_serving_a_stored_object_decodes_no_cid(monkeypatch):
    world = make_ipfs_world(num_nodes=1)
    node, client = world.node(0), world.client("client-0")
    node.chunk_size = client.chunk_size = 64
    first = encode_partition(np.arange(40.0))
    second = encode_partition(np.arange(40.0) * 2, 3.0)  # no leaf shared

    decoded = []
    original = CID.decode.__func__
    monkeypatch.setattr(
        CID, "decode",
        classmethod(lambda cls, text: decoded.append(text)
                    or original(cls, text)))

    def scenario():
        cids = []
        for blob in (first, second):
            cids.append((yield from client.put(blob, node="ipfs-0")))
        fetched = yield from client.get(cids[0])
        merged, count = yield from client.merge_and_download(
            cids, node="ipfs-0")
        yield from client.unpin(cids[1], "ipfs-0")
        return cids, fetched, merged, count

    cids, fetched, merged, count = run_proc(world, scenario())
    assert fetched == first and count == 2
    assert merged == sum_encoded_partitions([first, second])
    node.store.collect_garbage()
    assert node.load_object(cids[0]) == first
    assert node.load_object(cids[1]) is None  # the unpin found every leaf
    assert decoded == []
    # ... while a root that arrived as raw bytes is still parsed.
    root, leaves = chunk_object(first, 64)
    assert parse_manifest(Block(root.data)) == [leaf.cid for leaf in leaves]
    assert len(decoded) == len(leaves)
