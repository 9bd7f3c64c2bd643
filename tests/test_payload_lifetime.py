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

from repro import FaultPlan, FaultSpec, FLSession, NetworkProfile, \
    ProtocolConfig, RetryPolicy
from repro.ml import Dataset, SyntheticModel
from repro.net import Transport
from repro.obs.events import TrainerCompleted, TransferAborted

TRAINERS = 4
PARTITIONS = 2
CHUNK = 4096


def _session(chunk_size, aggregators_per_partition=1, faults=None,
             network=None, **overrides):
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
        datasets, faults=faults,
        network=network or NetworkProfile(num_ipfs_nodes=2,
                                          bandwidth_mbps=10.0))
    return session, partition_bytes + 8  # + the averaging counter


def _payload_size(message) -> int:
    payload = message.payload
    if isinstance(payload, dict):  # merge-and-download replies
        payload = payload.get("data")
    return len(payload) if isinstance(payload, (bytes, memoryview)) else 0


@pytest.fixture
def carriers(monkeypatch):
    """Weak references to every message that carries at least one chunk
    of payload, taken as it is sent."""
    sent = []
    send = Transport.send

    def watching_send(self, message):
        if _payload_size(message) >= CHUNK:
            sent.append(weakref.ref(message))
        return send(self, message)

    monkeypatch.setattr(Transport, "send", watching_send)
    return sent


def _alive(carriers) -> int:
    return sum(1 for carrier in carriers if carrier() is not None)


def _live_entries(sim) -> int:
    """Queued events, not counting tombstones of cancelled ones (those
    hold nothing and are compacted away in bulk)."""
    return sum(1 for entry in sim._queue if entry[3] is not None)


@pytest.mark.parametrize("shape", [
    dict(),
    dict(aggregators_per_partition=2),
    dict(merge_and_download=True),
], ids=["direct", "sync", "merge"])
def test_a_finished_round_leaves_no_payload_and_no_cycle(shape, carriers):
    """With the collector off, every message that carried at least one
    chunk of payload is dead after the round's storage is collected, the
    kernel heap holds no more live entries after round 2 than after
    round 1, and ``gc.collect()`` finds nothing: the kernel frees what
    it has processed by reference count alone."""
    gc.collect()  # whatever earlier tests left behind is not ours
    gc.disable()
    try:
        session, _ = _session(CHUNK, **shape)
        live = []
        for _ in range(2):
            session.run_iteration()
            session.collect_garbage(keep_iterations=1)
            alive = _alive(carriers)
            assert alive == 0, f"{alive}/{len(carriers)} payloads alive"
            live.append(_live_entries(session.sim))
        assert len(carriers) >= 2 * (TRAINERS * PARTITIONS + PARTITIONS)
        assert live[1] <= live[0]
        assert gc.collect() == 0
        session.consensus_params()
    finally:
        gc.enable()


def test_a_faulted_round_leaves_no_payload_and_no_cycle(carriers):
    """The same under faults: trainer-3 crashes and trainer-2's link goes
    down while both are fetching an update.  trainer-2's fetch is cut
    mid-transfer, times out, and its retry is refused until the link is
    back.  Still no payload outlives the round and ``gc.collect()`` finds
    nothing — what lets ``Session.run_iteration`` pause the collector."""
    plan = FaultPlan([
        FaultSpec(kind="crash_trainer", at=0.58, target="trainer-3"),
        FaultSpec(kind="link_down", at=0.58, duration=2.0,
                  target="trainer-2")],
        seed=4)
    network = NetworkProfile(num_ipfs_nodes=2, bandwidth_mbps=10.0,
                             retry=RetryPolicy(max_attempts=8),
                             directory_request_timeout=1.0,
                             ipfs_request_timeout=1.0)
    gc.collect()
    gc.disable()
    try:
        session, _ = _session(CHUNK, faults=plan, network=network)
        aborted = []
        session.sim.bus.subscribe(aborted.append, TransferAborted)
        metrics = session.run_iteration()
        session.collect_garbage(keep_iterations=1)
        assert _alive(carriers) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert metrics.degraded == {"trainer-3": "crashed (fault injection)"}
    assert "trainer-2" in metrics.trainers_completed
    cut, refused = aborted
    assert (cut.src, cut.dst, cut.size) == ("ipfs-0", "trainer-2", 12592)
    assert cut.at < 1.0 < refused.at  # the retry, after the timeout
    assert (refused.src, refused.reason) == ("trainer-2", "host offline")


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


def test_an_installed_vector_lives_until_every_trainer_replaced_it():
    """Trainers installing one update share one vector (a table of the
    session's maps the update to it).  With the collector off, round 0's
    shared vector is dead once every trainer installed round 1's; while
    round 1 installs, the table holds no vector an earlier round
    installed, and after it the table is empty."""
    gc.collect()
    gc.disable()
    try:
        session, _ = _session(CHUNK)
        session.run_iteration()
        shared = weakref.ref(session.trainers[0].model._params)
        assert all(t.model.adopted() is shared() for t in session.trainers)
        earlier = []

        def look(event):
            earlier.extend(vector for entries in session._installs.values()
                           for _, vector in entries if vector is shared())

        session.sim.bus.subscribe(look, TrainerCompleted)
        metrics = session.run_iteration()
        assert len(metrics.trainers_completed) == TRAINERS
        assert earlier == []
        assert session._installs == {}
        assert shared() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
