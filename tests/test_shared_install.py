"""Install by content: one installed vector per distinct update.

Every trainer of a round downloads the same global-update CIDs, divides
by the same counter and, in ``gradient`` mode, subtracts the result from
the same parameters.  Trainers whose model adopts a frozen vector
(``SyntheticModel``) therefore hold one read-only array — while a
trainer whose base differs (its model set from outside, or a round it
sat out) computes its own, and a model that copies never shares.
Buffers and bytes only: no host timing.
"""

import hashlib

import numpy as np
import pytest

from repro import FaultPlan, FaultSpec, FLSession, NetworkProfile, \
    ProtocolConfig
from repro.core.addressing import UPDATE
from repro.ml import Dataset, MLPClassifier, SyntheticModel, \
    make_classification, split_iid

TRAINERS = 16
SIZE = 1200


def _session(update_mode, faults=None, mlp=False):
    config = ProtocolConfig(
        num_partitions=2, t_train=600.0, t_sync=1200.0, poll_interval=0.25,
        seed=3, update_mode=update_mode)
    if mlp:
        data = make_classification(num_samples=30 * TRAINERS,
                                   num_features=5, num_classes=3, seed=4)
        factory = lambda: MLPClassifier(5, hidden=4, num_classes=3, seed=2)
        datasets = split_iid(data, TRAINERS, seed=1)
    else:
        factory = lambda: SyntheticModel(SIZE)
        datasets = [Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
                    for index in range(TRAINERS)]
    return FLSession(
        config, factory, datasets, faults=faults,
        network=NetworkProfile(num_ipfs_nodes=2, bandwidth_mbps=10.0))


def _averaged_update(session, iteration):
    """``sum / counter`` of the round's global update, from the blobs the
    IPFS nodes store under the CIDs the directory registered."""
    pieces = []
    for partition_id in range(session.config.num_partitions):
        (entry,) = session.directory.entries_for(partition_id, iteration,
                                                 UPDATE)
        blob = next(node.load_object(entry.cid) for node in session.nodes
                    if node.load_object(entry.cid) is not None)
        update = np.frombuffer(blob, dtype=np.float64)
        pieces.append(update[:-1] / update[-1])
    return np.concatenate(pieces)


def _expected(session, before, iteration):
    """What each trainer installs by the per-trainer formula:
    ``params - lr * (sum / counter)``, or ``sum / counter`` in params
    mode."""
    averaged = _averaged_update(session, iteration)
    if session.config.update_mode == "params":
        return {name: averaged for name in before}
    return {name: params - session.config.learning_rate * averaged
            for name, params in before.items()}


def _params(session):
    return {t.name: t.model.get_params() for t in session.trainers}


def _shared(session, names):
    first = session.trainers[names[0]].model._params
    return all(np.shares_memory(session.trainers[i].model._params, first)
               for i in names)


@pytest.mark.parametrize("update_mode", ["gradient", "params"])
def test_every_trainer_holds_one_buffer_of_the_formulas_bytes(update_mode):
    """After each of two rounds every trainer holds the same read-only
    array, and its bytes are each trainer's own formula."""
    session = _session(update_mode)
    everyone = list(range(TRAINERS))
    assert _shared(session, everyone)  # one frozen starting vector
    for iteration in range(2):
        before = _params(session)
        metrics = session.run_iteration()
        assert len(metrics.trainers_completed) == TRAINERS
        assert _shared(session, everyone)
        expected = _expected(session, before, iteration)
        for trainer in session.trainers:
            assert trainer.model.get_params().tobytes() \
                == expected[trainer.name].tobytes()


def test_a_shared_vector_is_read_only_and_a_copy_is_private():
    session = _session("gradient")
    session.run_iteration()
    first, second = session.trainers[0].model, session.trainers[1].model
    with pytest.raises(ValueError):
        first._params[0] = 1.0
    params = first.get_params()
    params[:] = -1.0
    assert not np.shares_memory(params, second._params)
    assert second.get_params().tolist() != params.tolist()


@pytest.mark.parametrize("update_mode", ["gradient", "params"])
@pytest.mark.parametrize("frozen", [False, True], ids=["copied", "adopted"])
def test_a_model_set_from_outside_computes_from_its_own_base(update_mode,
                                                             frozen):
    """Between rounds trainer-5's model is set from outside — to a copy,
    or to a frozen array it adopts.  In gradient mode it misses and
    installs from its own parameters, and nobody adopts its vector; in
    params mode the update alone decides, so it shares like the rest."""
    session = _session(update_mode)
    session.run_iteration()
    outside = session.trainers[5].model.get_params() + 1.0
    outside.flags.writeable = not frozen
    session.trainers[5].model.set_params(outside)
    before = _params(session)
    session.run_iteration()
    expected = _expected(session, before, 1)
    for trainer in session.trainers:
        assert trainer.model.get_params().tobytes() \
            == expected[trainer.name].tobytes()
    others = [index for index in range(TRAINERS) if index != 5]
    assert _shared(session, others)
    assert _shared(session, [0, 5]) == (update_mode == "params")


@pytest.mark.parametrize("mlp", [False, True], ids=["synthetic", "mlp"])
def test_a_trainer_kept_out_of_a_round_computes_from_its_own_base(mlp):
    """trainer-3 crashes in round 0, so it enters round 1 from the
    starting vector while the others enter from round 0's install."""
    plan = FaultPlan([FaultSpec(kind="crash_trainer", at=0.01,
                                duration=0.2, target="trainer-3")], seed=4)
    session = _session("gradient", faults=plan, mlp=mlp)
    metrics = session.run_iteration()
    assert "trainer-3" in metrics.degraded
    assert len(metrics.trainers_completed) == TRAINERS - 1
    before = _params(session)
    assert before["trainer-3"].tolist() != before["trainer-0"].tolist()
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == TRAINERS
    expected = _expected(session, before, 1)
    for trainer in session.trainers:
        assert trainer.model.get_params().tobytes() \
            == expected[trainer.name].tobytes()
    if not mlp:
        assert _shared(session, [index for index in range(TRAINERS)
                                 if index != 3])
        assert not _shared(session, [0, 3])


# sha256 of every trainer's parameters after two rounds of a 4-trainer
# MLP session, recorded before trainers shared installed vectors.
MLP_PARAMS_SHA256 = {
    "gradient":
        "f094aeddda65e6ea3575614eb85ff4f4e4d36f99f989d5721835c1686c48dc24",
    "params":
        "07694aeaec057e7dde826665356ee37e0bd437bf4f3bd2ab4d076ee816ed97c3",
}


@pytest.mark.parametrize("update_mode", ["gradient", "params"])
def test_an_mlp_session_installs_what_it_did_before_sharing(update_mode):
    """A model that copies in ``set_params`` holds its own parameters,
    bit-equal to the recorded ones."""
    data = make_classification(num_samples=120, num_features=5,
                               num_classes=3, seed=4)
    session = FLSession(
        ProtocolConfig(num_partitions=2, t_train=600.0, t_sync=1200.0,
                       poll_interval=0.25, seed=3, update_mode=update_mode),
        lambda: MLPClassifier(5, hidden=4, num_classes=3, seed=2),
        split_iid(data, 4, seed=1),
        network=NetworkProfile(num_ipfs_nodes=2, bandwidth_mbps=10.0))
    session.run(2)
    digest = hashlib.sha256()
    for trainer in session.trainers:
        assert trainer.completed_iterations == 2
        assert trainer.model.adopted() is None
        digest.update(trainer.model.get_params().tobytes())
    assert digest.hexdigest() == MLP_PARAMS_SHA256[update_mode]
    assert not np.shares_memory(session.trainers[0].model.w1,
                                session.trainers[1].model.w1)
