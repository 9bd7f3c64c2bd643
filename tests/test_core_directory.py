"""Integration tests for the directory service over the emulated network."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Address,
    GRADIENT,
    PARTIAL_UPDATE,
    UPDATE,
    PartitionCommitter,
)
from repro.core.directory import DirectoryClient, DirectoryService
from repro.crypto import Commitment, PedersenParams
from repro.crypto.curves import SECP256K1
from repro.ipfs import DHT, IPFSClient, IPFSNode, compute_cid
from repro.net import Network, Transport, mbps
from repro.sim import Simulator


PARTITION_LEN = 4


def make_world(verifiable=False, trainer_assignment=None):
    sim = Simulator()
    network = Network(sim)
    names = ["directory", "ipfs-0"] + [f"client-{i}" for i in range(4)]
    for name in names:
        network.add_host(name, up_bandwidth=mbps(50))
    transport = Transport(network)
    for name in names:
        transport.endpoint(name)
    dht = DHT(sim, lookup_delay=0.0)
    node = IPFSNode(sim, transport, dht, "ipfs-0")
    committer = PartitionCommitter(PARTITION_LEN)
    directory = DirectoryService(
        sim, transport, dht,
        committers={0: committer, 1: committer},
        trainer_assignment=trainer_assignment or {},
        verifiable=verifiable,
    )
    return sim, transport, dht, node, directory, committer


def run(sim, generator):
    proc = sim.process(generator)
    sim.run()
    if not proc.ok:
        raise proc.value
    return proc.value


def test_register_and_lookup_gradient():
    sim, transport, dht, node, directory, committer = make_world()
    client = DirectoryClient("client-0", transport)
    cid = node.store_object(b"gradient-data")

    def scenario():
        address = Address("client-0", 0, 0, GRADIENT)
        ack = yield from client.register(address, cid)
        assert ack["accepted"]
        results = yield from client.lookup(0, 0, GRADIENT)
        return results

    results = run(sim, scenario())
    assert len(results) == 1
    assert results[0]["uploader_id"] == "client-0"
    assert results[0]["cid"] == cid


def test_lookup_filters_by_partition_iteration_kind():
    sim, transport, dht, node, directory, committer = make_world()
    client = DirectoryClient("client-0", transport)
    cid = node.store_object(b"data")

    def scenario():
        yield from client.register(Address("c", 0, 0, GRADIENT), cid)
        yield from client.register(Address("c", 1, 0, GRADIENT), cid)
        yield from client.register(Address("c", 0, 1, GRADIENT), cid)
        p0_i0 = yield from client.lookup(0, 0, GRADIENT)
        p1_i0 = yield from client.lookup(1, 0, GRADIENT)
        p0_i1 = yield from client.lookup(0, 1, GRADIENT)
        updates = yield from client.lookup(0, 0, UPDATE)
        return p0_i0, p1_i0, p0_i1, updates

    p0_i0, p1_i0, p0_i1, updates = run(sim, scenario())
    assert len(p0_i0) == len(p1_i0) == len(p0_i1) == 1
    assert updates == []


def test_lookup_filters_by_aggregator():
    assignment = {("t0", 0): "agg-a", ("t1", 0): "agg-b"}
    sim, transport, dht, node, directory, committer = make_world(
        trainer_assignment=assignment
    )
    client = DirectoryClient("client-0", transport)
    cid = node.store_object(b"data")

    def scenario():
        yield from client.register(Address("t0", 0, 0, GRADIENT), cid)
        yield from client.register(Address("t1", 0, 0, GRADIENT), cid)
        mine = yield from client.lookup(0, 0, GRADIENT,
                                        aggregator_id="agg-a")
        theirs = yield from client.lookup(0, 0, GRADIENT,
                                          aggregator_id="agg-b")
        return mine, theirs

    mine, theirs = run(sim, scenario())
    assert [row["uploader_id"] for row in mine] == ["t0"]
    assert [row["uploader_id"] for row in theirs] == ["t1"]


def test_accumulated_commitments_total_and_per_aggregator():
    assignment = {("t0", 0): "agg-a", ("t1", 0): "agg-a", ("t2", 0): "agg-b"}
    sim, transport, dht, node, directory, committer = make_world(
        verifiable=True, trainer_assignment=assignment
    )
    client = DirectoryClient("client-0", transport)
    rng = np.random.default_rng(0)
    blobs, commitments = {}, {}
    for trainer in ("t0", "t1", "t2"):
        blob, commitment = committer.encode_and_commit(
            rng.normal(size=PARTITION_LEN)
        )
        blobs[trainer], commitments[trainer] = blob, commitment
    cid = node.store_object(b"placeholder")

    def scenario():
        for trainer in ("t0", "t1", "t2"):
            yield from client.register(
                Address(trainer, 0, 0, GRADIENT), cid, commitments[trainer]
            )
        total, total_count = yield from client.accumulated(0, 0)
        agg_a, a_count = yield from client.accumulated(
            0, 0, aggregator_id="agg-a"
        )
        return total, total_count, agg_a, a_count

    total, total_count, agg_a, a_count = run(sim, scenario())
    assert total_count == 3
    assert a_count == 2
    expected_total = Commitment.product(
        list(commitments.values()), committer.curve
    )
    assert total == expected_total
    expected_a = commitments["t0"].combine(commitments["t1"])
    assert agg_a == expected_a


def test_update_verification_accepts_honest_aggregate():
    sim, transport, dht, node, directory, committer = make_world(
        verifiable=True
    )
    client = DirectoryClient("client-0", transport)
    ipfs = IPFSClient("client-1", transport, dht)
    rng = np.random.default_rng(1)
    from repro.core import sum_encoded_partitions
    blobs, commitments = [], []
    for trainer in range(3):
        blob, commitment = committer.encode_and_commit(
            rng.normal(size=PARTITION_LEN)
        )
        blobs.append(blob)
        commitments.append(commitment)
    grad_cid = node.store_object(b"g")

    def scenario(sim):
        for index in range(3):
            yield from client.register(
                Address(f"t{index}", 0, 0, GRADIENT), grad_cid,
                commitments[index],
            )
        aggregate = sum_encoded_partitions(blobs)
        update_cid = yield from ipfs.put(aggregate, node="ipfs-0")
        yield from client.register(
            Address("agg", 0, 0, UPDATE), update_cid
        )
        yield sim.timeout(30.0)  # let async verification run
        results = yield from client.lookup(0, 0, UPDATE)
        return results

    results = run(sim, scenario(sim))
    assert len(results) == 1
    assert not directory.rejections


def test_update_verification_rejects_dropped_gradient():
    sim, transport, dht, node, directory, committer = make_world(
        verifiable=True
    )
    client = DirectoryClient("client-0", transport)
    ipfs = IPFSClient("client-1", transport, dht)
    rng = np.random.default_rng(2)
    from repro.core import sum_encoded_partitions
    blobs, commitments = [], []
    for _ in range(3):
        blob, commitment = committer.encode_and_commit(
            rng.normal(size=PARTITION_LEN)
        )
        blobs.append(blob)
        commitments.append(commitment)
    grad_cid = node.store_object(b"g")

    def scenario(sim):
        for index in range(3):
            yield from client.register(
                Address(f"t{index}", 0, 0, GRADIENT), grad_cid,
                commitments[index],
            )
        incomplete = sum_encoded_partitions(blobs[:2])  # dropped one
        update_cid = yield from ipfs.put(incomplete, node="ipfs-0")
        yield from client.register(Address("agg", 0, 0, UPDATE), update_cid)
        yield sim.timeout(30.0)
        results = yield from client.lookup(0, 0, UPDATE)
        return results

    results = run(sim, scenario(sim))
    assert results == []  # rejected updates stay invisible
    assert len(directory.rejections) == 1
    assert "mismatch" in directory.rejections[0].reason


def test_update_first_wins_duplicates_refused():
    sim, transport, dht, node, directory, committer = make_world()
    client = DirectoryClient("client-0", transport)
    cid1 = node.store_object(b"first update")
    cid2 = node.store_object(b"second update")

    def scenario():
        first = yield from client.register(Address("a1", 0, 0, UPDATE), cid1)
        second = yield from client.register(Address("a2", 0, 0, UPDATE), cid2)
        results = yield from client.lookup(0, 0, UPDATE)
        return first, second, results

    first, second, results = run(sim, scenario())
    assert first["accepted"]
    assert not second["accepted"]
    assert len(results) == 1
    assert results[0]["cid"] == cid1


def test_partial_updates_stored_without_verification():
    sim, transport, dht, node, directory, committer = make_world(
        verifiable=True
    )
    client = DirectoryClient("client-0", transport)
    cid = node.store_object(b"partial")

    def scenario():
        ack = yield from client.register(
            Address("agg-a", 0, 0, PARTIAL_UPDATE), cid
        )
        results = yield from client.lookup(0, 0, PARTIAL_UPDATE)
        return ack, results

    ack, results = run(sim, scenario())
    assert ack["accepted"]
    assert len(results) == 1


def test_only_a_global_update_registration_runs_as_a_process(monkeypatch):
    """Gradient and partial-update registrations never wait, so the
    server answers them inline: no process, no zero-delay timeout.  A
    global update may be fetched and verified, and stays a process."""
    sim, transport, dht, node, directory, committer = make_world()
    client = DirectoryClient("client-0", transport)
    cid = node.store_object(b"data")
    spawned, timeouts = [], []
    process, timeout = Simulator.process, Simulator.timeout

    def counting_process(self, generator, name=""):
        spawned.append(name)
        return process(self, generator, name=name)

    def counting_timeout(self, delay, *args, **kwargs):
        timeouts.append(delay)
        return timeout(self, delay, *args, **kwargs)

    monkeypatch.setattr(Simulator, "process", counting_process)
    monkeypatch.setattr(Simulator, "timeout", counting_timeout)
    served = {}
    for kind in (GRADIENT, PARTIAL_UPDATE, UPDATE):
        del spawned[:], timeouts[:]
        ack = run(sim, client.register(Address("agg-a", 0, 0, kind), cid))
        assert ack["accepted"]
        served[kind] = (spawned[1:], len(timeouts))  # [0]: run()'s own
    # Every kind pays the wakeups of its request and its ack; the
    # scheduler's settles are end-of-instant hooks, not timeouts.
    assert served[GRADIENT] == served[PARTIAL_UPDATE] == ([], 2)
    assert served[UPDATE] == (["directory:dir.register"], 3)
    assert directory.register_count == 3


def test_verifiable_requires_committers():
    sim = Simulator()
    network = Network(sim)
    network.add_host("directory")
    transport = Transport(network)
    dht = DHT(sim)
    with pytest.raises(ValueError):
        DirectoryService(sim, transport, dht, verifiable=True)


def test_indexed_entries_equal_the_brute_force_filter():
    """``entries_for`` / ``entries_before`` answer from per-key indexes;
    every answer must be the filter over all entries it replaced, element
    for element — including the slot a re-registration keeps."""
    sim, transport, dht, node, directory, committer = make_world()
    client = DirectoryClient("client-0", transport)
    cids = [node.store_object(f"blob-{i}".encode()) for i in range(8)]

    def scenario():
        # Interleave iterations, partitions and kinds.
        for iteration in (0, 1):
            for uploader in ("t0", "t1", "t2"):
                yield from client.register(
                    Address(uploader, iteration % 2, iteration, GRADIENT),
                    cids[0])
            yield from client.register_batch([
                {"address": Address("t3", partition, iteration, GRADIENT),
                 "cid": cids[1 + partition]}
                for partition in (0, 1)
            ])
            yield from client.register(
                Address("agg-0", 0, iteration, PARTIAL_UPDATE), cids[3])
            yield from client.register(
                Address("agg-0", 0, iteration, UPDATE), cids[4])
        # Re-registrations: an idempotent retry (same CID), a replacement
        # (new CID, same address) and a late entry for the older round.
        yield from client.register(Address("t1", 0, 0, GRADIENT), cids[0])
        yield from client.register(Address("t0", 0, 0, GRADIENT), cids[5])
        yield from client.register(
            Address("agg-0", 0, 0, PARTIAL_UPDATE), cids[6])
        yield from client.register(Address("t9", 0, 0, GRADIENT), cids[7])

    run(sim, scenario())
    everything = list(directory._entries.values())
    assert len(everything) == 15
    assert directory.entry(Address("t0", 0, 0, GRADIENT)).cid == cids[5]
    for partition in (0, 1, 2):
        for iteration in (0, 1, 2):
            for kind in (GRADIENT, PARTIAL_UPDATE, UPDATE):
                brute = [
                    entry for entry in everything
                    if entry.address.partition_id == partition
                    and entry.address.iteration == iteration
                    and entry.address.kind == kind
                ]
                indexed = directory.entries_for(partition, iteration, kind)
                assert [id(e) for e in indexed] == [id(e) for e in brute]
    # The replaced entry kept t0's first slot, ahead of t1 and t2.
    assert [entry.address.uploader_id
            for entry in directory.entries_for(0, 0, GRADIENT)] \
        == ["t0", "t1", "t2", "t3", "t9"]
    for cutoff in (0, 1, 2, 3):
        brute = [entry for entry in everything
                 if entry.address.iteration < cutoff]
        # Oldest iteration first; stable within one iteration.
        brute.sort(key=lambda entry: entry.address.iteration)
        indexed = directory.entries_before(cutoff)
        assert [id(e) for e in indexed] == [id(e) for e in brute]


# -- the one client against a plain-dict model ---------------------------------------

UPLOADERS = ["t0", "t1", "t2", "t3"]
ASSIGNMENT = {(uploader, partition): f"agg-{index % 2}"
              for index, uploader in enumerate(UPLOADERS)
              for partition in range(3)}
#: Blob ``b``'s CID, and the vector its gradient commitment commits to.
CIDS = [compute_cid(b"blob-%d" % blob) for blob in range(4)]
VECTORS = [[blob + 1, 2, 3, 4] for blob in range(4)]
#: The iteration whose gradient cutoff is armed at t = 0.
LATE = 1
_PARAMS = []


def _pedersen_params():
    if not _PARAMS:
        _PARAMS.append(PedersenParams.setup(SECP256K1, PARTITION_LEN))
    return _PARAMS[0]


class DirectoryModel:
    """What the directory should answer, kept in plain dicts.

    Entries live per ``(partition, iteration, kind)`` key, address ->
    CID, in first-registration order.  Accumulated commitments are kept
    as summed vectors: an unblinded Pedersen commitment is additively
    homomorphic, so the product of the commitments must equal the
    commitment of the sum.  Iteration :data:`LATE`'s gradient cutoff
    has passed, so none of its gradients is accepted.
    """

    def __init__(self):
        self.entries = {}
        self.sums = {}
        self.registers = 0
        self.lookups = 0

    def _gradient(self, address, blob):
        key = (address.partition_id, address.iteration, GRADIENT)
        bucket = self.entries.setdefault(key, {})
        if bucket.get(address) == CIDS[blob]:
            return True  # an idempotent retry folds nothing in
        if address.iteration == LATE:
            return False
        bucket[address] = CIDS[blob]
        aggregator = ASSIGNMENT[(address.uploader_id, address.partition_id)]
        for scope in (None, aggregator):
            vector, count = self.sums.get(
                (address.partition_id, address.iteration, scope),
                ([0] * PARTITION_LEN, 0))
            self.sums[(address.partition_id, address.iteration, scope)] = (
                [a + b for a, b in zip(vector, VECTORS[blob])], count + 1)
        return True

    def register(self, address, blob):
        self.registers += 1
        if address.kind == GRADIENT:
            if self._gradient(address, blob):
                return {"accepted": True}
            return {"accepted": False, "reason": "past t_train"}
        bucket = self.entries.setdefault(
            (address.partition_id, address.iteration, address.kind), {})
        if address.kind == UPDATE and bucket:
            # First update wins; its own uploader re-announcing it is a
            # retry.
            if bucket.get(address) == CIDS[blob]:
                return {"accepted": True}
            return {"accepted": False, "reason": "duplicate"}
        bucket[address] = CIDS[blob]
        return {"accepted": True}

    def register_batch(self, rows):
        self.registers += 1
        accepted = True
        for address, blob in rows:
            accepted &= self._gradient(address, blob)
        return {"accepted": accepted}

    def lookup(self, partition, iteration, kind, aggregator):
        self.lookups += 1
        return [
            (address.uploader_id, str(cid))
            for address, cid in self.entries.get(
                (partition, iteration, kind), {}).items()
            if aggregator is None or kind != GRADIENT or aggregator
            == ASSIGNMENT[(address.uploader_id, partition)]
        ]

    def accumulated(self, partition, iteration, aggregator):
        vector, count = self.sums.get((partition, iteration, aggregator),
                                      (None, 0))
        if vector is None:
            return None, 0
        return _pedersen_params().commit(vector).to_bytes(), count


def _address(row):
    uploader, partition, iteration, kind, _ = row
    return Address(uploader, partition, iteration, kind)


registrations = st.tuples(
    st.sampled_from(UPLOADERS), st.integers(0, 2), st.integers(0, 1),
    st.sampled_from([GRADIENT, GRADIENT, PARTIAL_UPDATE, UPDATE]),
    st.integers(0, 3),
)
aggregator_ids = st.sampled_from([None, "agg-0", "agg-1"])
operation = st.one_of(
    registrations.map(lambda row: ("register", row)),
    st.lists(registrations.filter(lambda row: row[3] == GRADIENT),
             min_size=1, max_size=4).map(lambda rows: ("batch", rows)),
    st.tuples(st.just("lookup"), st.integers(0, 2), st.integers(0, 1),
              st.sampled_from([GRADIENT, PARTIAL_UPDATE, UPDATE]),
              aggregator_ids),
    st.tuples(st.just("accumulated"), st.integers(0, 2),
              st.integers(0, 1), aggregator_ids),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(operation, min_size=1, max_size=24))
@example([
    ("register", ("t0", 0, 0, GRADIENT, 0)),
    ("register", ("t0", 0, 0, GRADIENT, 0)),  # a retry (lost ack)
    ("register", ("t1", 0, 0, GRADIENT, 1)),
    ("register", ("t1", 0, 0, GRADIENT, 2)),  # a new CID, same address
    ("batch", [("t2", 0, 0, GRADIENT, 3), ("t3", 0, LATE, GRADIENT, 3)]),
    ("register", ("t0", 0, 0, UPDATE, 0)),
    ("register", ("t0", 0, 0, UPDATE, 0)),  # the winner retrying
    ("register", ("t1", 0, 0, UPDATE, 1)),  # a loser
    ("lookup", 0, 0, GRADIENT, "agg-1"),
    ("lookup", 0, 0, UPDATE, None),
    ("accumulated", 0, 0, "agg-0"),
])
def test_the_one_client_matches_a_dict_model(operations):
    """Any register / re-register / batch / lookup / accumulated
    sequence through one client gives the acks, lookup rows (in order),
    accumulated bytes and counts, and server counters the model
    predicts — and leaves the entries the model holds."""
    sim, transport, dht, node, directory, committer = make_world(
        trainer_assignment=ASSIGNMENT)
    directory.committers.update({2: committer})
    directory.begin_iteration(LATE, t_train=0.0)
    client = DirectoryClient("client-0", transport)
    params = _pedersen_params()
    commitments = [params.commit(vector) for vector in VECTORS]
    model = DirectoryModel()

    def record(row):
        address = _address(row)
        return {"address": address, "cid": CIDS[row[4]],
                "commitment": (commitments[row[4]]
                               if address.kind == GRADIENT else None)}

    def scenario():
        for op in operations:
            if op[0] == "register":
                ack = yield from client.register(**record(op[1]))
                assert ack == model.register(_address(op[1]), op[1][4]), op
            elif op[0] == "batch":
                ack = yield from client.register_batch(
                    [record(row) for row in op[1]])
                assert ack == model.register_batch(
                    [(_address(row), row[4]) for row in op[1]]), op
            elif op[0] == "lookup":
                rows = yield from client.lookup(*op[1:])
                assert [(row["uploader_id"], str(row["cid"]))
                        for row in rows] == model.lookup(*op[1:]), op
                for row in rows:
                    expected = (commitments[CIDS.index(row["cid"])]
                                if op[3] == GRADIENT else None)
                    assert row["commitment"] is expected, op
            else:
                total, count = yield from client.accumulated(*op[1:])
                assert (total and total.to_bytes(), count) \
                    == model.accumulated(*op[1:]), op

    run(sim, scenario())
    assert directory.register_count == model.registers
    assert directory.lookup_count == model.lookups
    for partition in range(3):
        for iteration in range(2):
            for kind in (GRADIENT, PARTIAL_UPDATE, UPDATE):
                assert [
                    (entry.address, entry.cid) for entry in
                    directory.entries_for(partition, iteration, kind)
                ] == list(model.entries.get(
                    (partition, iteration, kind), {}).items())
            for aggregator in (None, "agg-0", "agg-1"):
                total, count = directory.accumulated_commitment(
                    partition, iteration, aggregator)
                assert (total and total.to_bytes(), count) \
                    == model.accumulated(partition, iteration, aggregator)
