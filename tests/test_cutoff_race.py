"""Regression tests for the t_train registration-cutoff race.

A trainer whose *upload* straddles the training deadline must not have
its commitment accumulated after the aggregators' final poll — otherwise
an honest aggregate could fail verification.  The directory enforces the
cutoff at registration time.
"""

import numpy as np

from repro.core import Address, FLSession, GRADIENT, ProtocolConfig
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile

from tests.test_core_directory import make_world, run


def test_directory_rejects_gradient_after_cutoff():
    sim, transport, dht, node, directory, committer = make_world()
    from repro.core.directory import DirectoryClient
    client = DirectoryClient("client-0", transport)
    directory.state.begin_iteration(0, t_train=10.0)
    cid = node.store_object(b"gradient")

    def scenario(sim):
        early = yield from client.register(Address("t0", 0, 0, GRADIENT),
                                           cid)
        yield sim.timeout(20.0)  # past the cutoff
        late = yield from client.register(Address("t1", 0, 0, GRADIENT),
                                          cid)
        rows = yield from client.lookup(0, 0, GRADIENT)
        return early, late, rows

    early, late, rows = run(sim, scenario(sim))
    assert early["accepted"]
    assert not late["accepted"]
    assert [row["uploader_id"] for row in rows] == ["t0"]


def test_late_commitment_never_enters_accumulation():
    sim, transport, dht, node, directory, committer = make_world(
        verifiable=True
    )
    from repro.core.directory import DirectoryClient
    client = DirectoryClient("client-0", transport)
    directory.state.begin_iteration(0, t_train=5.0)
    blob, commitment = committer.encode_and_commit(np.ones(4))
    cid = node.store_object(blob)

    def scenario(sim):
        yield from client.register(Address("t0", 0, 0, GRADIENT), cid,
                                   commitment)
        yield sim.timeout(10.0)
        yield from client.register(Address("t1", 0, 0, GRADIENT), cid,
                                   commitment)

    run(sim, scenario(sim))
    # The late commitment is not in the product.
    assert directory.state.accumulated(0, 0, None)["count"] == 1


def test_straddling_upload_does_not_break_verification():
    """End to end: a trainer on a glacial link finishes its upload after
    t_train; in verifiable mode the remaining trainers' aggregate must
    still verify and install."""
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    config = ProtocolConfig(num_partitions=2, t_train=1.0, t_sync=240.0,
                            verifiable=True, poll_interval=0.2)
    session = FLSession(
        config,
        lambda: LogisticRegression(num_features=8, seed=0),
        shards,
        network=NetworkProfile(
            num_ipfs_nodes=4,
            bandwidth_mbps=10.0,
            # trainer-0's ~1.6 kB of partition uploads take >2.5 s at
            # 4 kbps, straddling the 1 s deadline.
            trainer_bandwidths_mbps=[0.004, 10.0, 10.0, 10.0],
        ),
    )
    metrics = session.run_iteration()
    completed = set(metrics.trainers_completed)
    assert "trainer-0" not in completed
    assert {"trainer-1", "trainer-2", "trainer-3"} <= completed
    # No verification failures: the honest 3-trainer aggregate opened the
    # accumulated commitment (which excludes the late registration).
    assert metrics.verification_failures == []
    assert not session.directory.state.rejections


def test_straddling_upload_batch_registration():
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    config = ProtocolConfig(num_partitions=2, t_train=1.0, t_sync=240.0,
                            verifiable=True, batch_registration=True,
                            poll_interval=0.2)
    session = FLSession(
        config,
        lambda: LogisticRegression(num_features=8, seed=0),
        shards,
        network=NetworkProfile(
            num_ipfs_nodes=4,
            bandwidth_mbps=10.0,
            trainer_bandwidths_mbps=[0.004, 10.0, 10.0, 10.0],
        ),
    )
    metrics = session.run_iteration()
    assert "trainer-0" not in metrics.trainers_completed
    assert len(metrics.trainers_completed) == 3
    assert metrics.verification_failures == []
