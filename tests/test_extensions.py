"""Tests for the Sec. VI extensions: batch registration and directory
map snapshots on IPFS."""

import numpy as np
import pytest

from repro.core import (
    Address,
    FLSession,
    GRADIENT,
    PartitionCommitter,
    ProtocolConfig,
    SnapshotPublisher,
    SnapshotReader,
    accumulate_cids,
)
from repro.core.offload import decode_snapshot, encode_snapshot
from repro.core.directory import DirectoryClient
from repro.ipfs import IPFSClient, compute_cid
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile

from tests.test_core_directory import make_world, run


# -- CID accumulation -------------------------------------------------------------


def test_accumulate_cids_order_independent():
    cids = [compute_cid(bytes([i])) for i in range(5)]
    assert accumulate_cids(cids) == accumulate_cids(list(reversed(cids)))


def test_accumulate_cids_detects_substitution():
    cids = [compute_cid(bytes([i])) for i in range(5)]
    swapped = cids[:4] + [compute_cid(b"intruder")]
    assert accumulate_cids(cids) != accumulate_cids(swapped)


def test_accumulate_cids_detects_omission():
    cids = [compute_cid(bytes([i])) for i in range(5)]
    assert accumulate_cids(cids) != accumulate_cids(cids[:4])


def test_accumulate_empty():
    assert accumulate_cids([]) == bytes(32)


# -- batch registration --------------------------------------------------------------


def test_batch_registration_accepted_and_queryable():
    sim, transport, dht, node, directory, committer = make_world()
    client = DirectoryClient("client-0", transport)
    cids = [node.store_object(bytes([i])) for i in range(3)]
    records = [
        {"address": Address("t0", i, 0, GRADIENT), "cid": cids[i],
         "commitment": None}
        for i in range(3)
    ]

    def scenario():
        ack = yield from client.register_batch(records)
        assert ack["accepted"]
        found = []
        for partition in range(3):
            rows = yield from client.lookup(partition, 0, GRADIENT)
            found.append(len(rows))
        return found

    assert run(sim, scenario()) == [1, 1, 1]
    assert directory.register_count == 1  # one message for three records


def test_batch_registration_rejects_bad_accumulation():
    sim, transport, dht, node, directory, committer = make_world()
    client = DirectoryClient("client-0", transport)
    cid = node.store_object(b"data")
    records = [{"address": Address("t0", 0, 0, GRADIENT), "cid": cid,
                "commitment": None}]

    def scenario():
        # Bypass the client helper to send a corrupted accumulation.
        from repro.core.directory import KIND_REGISTER_BATCH, REGISTER_SIZE
        response = yield client.endpoint.request(
            "directory", KIND_REGISTER_BATCH,
            payload={"records": records, "accumulation": bytes(32)},
            size=REGISTER_SIZE,
        )
        rows = yield from client.lookup(0, 0, GRADIENT)
        return response.payload, rows

    ack, rows = run(sim, scenario())
    assert not ack["accepted"]
    assert rows == []


def test_session_with_batch_registration_matches_plain():
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    factory = lambda: LogisticRegression(num_features=8, seed=0)  # noqa

    plain = FLSession(
        ProtocolConfig(num_partitions=3, t_train=300, t_sync=500),
        factory, shards, network=NetworkProfile(num_ipfs_nodes=4),
    )
    batched = FLSession(
        ProtocolConfig(num_partitions=3, t_train=300, t_sync=500,
                       batch_registration=True),
        factory, shards, network=NetworkProfile(num_ipfs_nodes=4),
    )
    plain.run_iteration()
    metrics = batched.run_iteration()
    assert len(metrics.trainers_completed) == 4
    np.testing.assert_allclose(batched.consensus_params(),
                               plain.consensus_params(), atol=1e-12)
    # 4 trainers x 3 partitions: 12 registrations -> 4 batched messages
    # (plus the per-partition update registrations from aggregators).
    assert batched.directory.register_count < plain.directory.register_count


def test_batch_registration_with_verifiability():
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    session = FLSession(
        ProtocolConfig(num_partitions=2, t_train=300, t_sync=500,
                       batch_registration=True, verifiable=True),
        lambda: LogisticRegression(num_features=8, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4),
    )
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    assert not metrics.verification_failures


# -- map snapshots ----------------------------------------------------------------------


def test_snapshot_encode_decode_roundtrip():
    committer = PartitionCommitter(partition_len=4)
    blob, commitment = committer.encode_and_commit(np.ones(4))
    rows = [
        {"uploader_id": "t0", "cid": compute_cid(b"a"),
         "commitment": commitment},
        {"uploader_id": "t1", "cid": compute_cid(b"b"),
         "commitment": None},
    ]
    encoded = encode_snapshot(2, 7, rows)
    partition_id, iteration, decoded = decode_snapshot(
        encoded, curve=committer.curve
    )
    assert (partition_id, iteration) == (2, 7)
    assert decoded[0]["uploader_id"] == "t0"
    assert decoded[0]["cid"] == compute_cid(b"a")
    assert decoded[0]["commitment"] == commitment
    assert decoded[1]["commitment"] is None


def test_decode_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        decode_snapshot(b'{"kind": "something-else", "rows": []}')


def test_snapshot_publish_and_fetch_over_ipfs():
    sim, transport, dht, node, directory, committer = make_world()
    client = DirectoryClient("client-0", transport)
    reader_ipfs = IPFSClient("client-1", transport, dht)
    publisher_ipfs = IPFSClient("client-2", transport, dht)
    publisher = SnapshotPublisher(directory, publisher_ipfs, node="ipfs-0")
    reader = SnapshotReader(reader_ipfs, curve=committer.curve)
    data_cid = node.store_object(b"gradient bytes")
    box = {}

    def scenario():
        for trainer in ("t0", "t1", "t2"):
            yield from client.register(
                Address(trainer, 0, 0, GRADIENT), data_cid
            )
        snapshot_cid = yield from publisher.seal(0, 0)
        box["snapshot_cid"] = snapshot_cid
        rows = yield from reader.fetch(snapshot_cid)
        return rows

    rows = run(sim, scenario())
    assert sorted(row["uploader_id"] for row in rows) == ["t0", "t1", "t2"]
    assert all(row["cid"] == data_cid for row in rows)
    assert publisher.snapshot_cid(0, 0) == box["snapshot_cid"]
    assert publisher.snapshot_cid(1, 0) is None
