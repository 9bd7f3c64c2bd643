"""A payload lives exactly as long as the protocol needs it.

The paper moves gradients and updates through IPFS because they are
"only needed for a short period of time".  These tests hold the
simulator to that: once a round is over and its storage collected,
nothing — no lost-race request timeout on the kernel heap, no reference
cycle through a processed event, no copy parked in a finished process —
still references a fetched blob, and memory does not grow round on
round.  Counted objects and traced bytes only: no host timing.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import FLSession, NetworkProfile, ProtocolConfig
from repro.ml import Dataset, SyntheticModel
from repro.net import Transport

TRAINERS = 4
PARTITIONS = 2


def _session(chunk_size, aggregators_per_partition=1, **overrides):
    """4 trainers x 2 partitions, each partition a little over 3 chunks."""
    partition_bytes = 3 * chunk_size + 40
    config = ProtocolConfig(
        num_partitions=PARTITIONS, chunk_size=chunk_size,
        aggregators_per_partition=aggregators_per_partition,
        t_train=600.0, t_sync=1200.0, update_mode="gradient",
        poll_interval=0.25, takeover_grace=60.0, seed=3, **overrides)
    datasets = [Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
                for index in range(TRAINERS)]
    session = FLSession(
        config, lambda: SyntheticModel(PARTITIONS * partition_bytes // 8),
        datasets,
        network=NetworkProfile(num_ipfs_nodes=2, bandwidth_mbps=10.0))
    return session, partition_bytes + 8  # + the averaging counter


def _payload_size(message) -> int:
    payload = message.payload
    if isinstance(payload, dict):  # merge-and-download replies
        payload = payload.get("data")
    return len(payload) if isinstance(payload, (bytes, memoryview)) else 0


def _live_entries(sim) -> int:
    """Queued events, not counting tombstones of cancelled ones (those
    hold nothing and are compacted away in bulk)."""
    return sum(1 for entry in sim._queue if entry[3] is not None)


@pytest.mark.parametrize("shape", [
    dict(),
    dict(aggregators_per_partition=2),
    dict(merge_and_download=True),
], ids=["direct", "sync", "merge"])
def test_a_finished_round_leaves_no_payload_and_no_cycle(shape, monkeypatch):
    """With the collector off, every message that carried at least one
    chunk of payload is dead after the round's storage is collected, the
    kernel heap holds no more live entries after round 2 than after
    round 1, and ``gc.collect()`` finds nothing: the kernel frees what
    it has processed by reference count alone."""
    chunk_size = 4096
    carriers = []
    send = Transport.send

    def watching_send(self, message):
        if _payload_size(message) >= chunk_size:
            carriers.append(weakref.ref(message))
        return send(self, message)

    monkeypatch.setattr(Transport, "send", watching_send)
    gc.collect()  # whatever earlier tests left behind is not ours
    gc.disable()
    try:
        session, _ = _session(chunk_size, **shape)
        live = []
        for _ in range(2):
            session.run_iteration()
            session.collect_garbage(keep_iterations=1)
            alive = sum(1 for carrier in carriers if carrier() is not None)
            assert alive == 0, f"{alive}/{len(carriers)} payloads alive"
            live.append(_live_entries(session.sim))
        assert len(carriers) >= 2 * (TRAINERS * PARTITIONS + PARTITIONS)
        assert live[1] <= live[0]
        assert gc.collect() == 0
        session.consensus_params()
    finally:
        gc.enable()


def test_memory_does_not_grow_round_on_round():
    """Traced memory after round 3 is within one partition of round 2's
    (telemetry rows are all that accrues), and the traced peak of the
    whole run stays under 4x the bytes a round stores — each byte exists
    as the gradient vector, as the encoded blob the node's blocks alias,
    and transiently in the sums, not once per hop."""
    session, partition_bytes = _session(32 * 1024, aggregators_per_partition=2)
    tracemalloc.start()
    try:
        current = []
        for _ in range(4):
            session.run_iteration()
            stored_per_round = session.storage_bytes
            session.collect_garbage(keep_iterations=1)
            current.append(tracemalloc.get_traced_memory()[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stored_per_round >= TRAINERS * PARTITIONS * partition_bytes
    assert current[3] <= current[2] + partition_bytes
    assert peak <= 4 * stored_per_round
