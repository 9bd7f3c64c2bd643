"""The directory: its serve loop over the emulated network, and its
state (:class:`~repro.core.directory.DirectoryState`) against a
plain-dict model, with no simulator."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    Address,
    GRADIENT,
    PartitionCommitter,
)
from repro.core.addressing import PARTIAL_UPDATE, UPDATE
from repro.core.directory import (
    DirectoryClient,
    DirectoryService,
    DirectoryState,
)
from repro.core.offload import accumulate_cids
from repro.crypto import Commitment
from repro.ipfs import DHT, IPFSClient, IPFSNode
from repro.ipfs.cid import compute_cid
from repro.net import Network, Transport, mbps
from repro.obs import EventBus
from repro.obs.events import (
    CommitmentAccumulated,
    GradientRegistered,
    UpdateVerified,
    VerificationFailed,
)
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
    assert (directory.register_count, directory.lookup_count) == (3, 4)


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
    assert not directory.state.rejections


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
    assert len(directory.state.rejections) == 1
    assert "mismatch" in directory.state.rejections[0].reason


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


def test_only_a_verifiable_update_registration_runs_as_a_process(
        monkeypatch):
    """Every registration is answered inline: no process, no zero-delay
    timeout.  Only an update the directory must verify spawns one, for
    its fetch (here nothing was accumulated, so it is rejected without
    one)."""
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
    for verifiable in (False, True):
        sim, transport, dht, node, directory, committer = make_world(
            verifiable=verifiable)
        client = DirectoryClient("client-0", transport)
        cid = node.store_object(b"data")
        for kind in (GRADIENT, PARTIAL_UPDATE, UPDATE):
            del spawned[:], timeouts[:]
            ack = run(sim, client.register(Address("agg-a", 0, 0, kind),
                                           cid))
            assert ack["accepted"]
            # spawned[0] is run()'s own process.
            served[kind, verifiable] = (spawned[1:], len(timeouts))
        assert directory.register_count == 3
    # Every kind pays the wakeups of its request and its ack; the
    # scheduler's settles are end-of-instant hooks, not timeouts.
    verified = served.pop((UPDATE, True))
    assert list(served.values()) == [([], 2)] * 5
    assert verified == (["directory:verify"], 2)
    assert [rejection.reason for rejection in directory.state.rejections] \
        == ["no gradient commitments accumulated"]


def test_an_address_keeps_the_cid_it_was_first_registered_with():
    """A second CID for a registered gradient or partial update is
    refused, so the lookup serves the first and the product holds only
    the first commitment: the one an honest aggregator's sum opens to.
    The first CID again is still a retry."""
    sim, transport, dht, node, directory, committer = make_world(
        verifiable=True)
    client = DirectoryClient("client-0", transport)
    first, second = node.store_object(b"A"), node.store_object(b"B")
    _, c_first = committer.encode_and_commit(np.ones(PARTITION_LEN))
    _, c_second = committer.encode_and_commit(np.full(PARTITION_LEN, 2.0))

    def scenario():
        acks = []
        for kind, commitments in ((GRADIENT, (c_first, c_second, c_first)),
                                  (PARTIAL_UPDATE, (None,) * 3)):
            for cid, commitment in zip((first, second, first), commitments):
                acks.append((yield from client.register(
                    Address("t0", 0, 0, kind), cid, commitment)))
        gradients = yield from client.lookup(0, 0, GRADIENT)
        partials = yield from client.lookup(0, 0, PARTIAL_UPDATE)
        total = yield from client.accumulated(0, 0)
        return acks, gradients + partials, total

    acks, rows, total = run(sim, scenario())
    refused = {"accepted": False, "reason": "conflicting cid"}
    assert acks == [{"accepted": True}, refused, {"accepted": True}] * 2
    assert [row["cid"] for row in rows] == [first, first]
    assert total == (Commitment.product([c_first], committer.curve), 1)


def test_a_batch_holding_anything_but_gradients_is_refused():
    """Batching is for gradients: a batch with any other record is
    refused with a reason, and none of its records is registered."""
    sim, transport, dht, node, directory, committer = make_world()
    client = DirectoryClient("client-0", transport)
    cid = node.store_object(b"data")

    def scenario():
        ack = yield from client.register_batch([
            {"address": Address("t0", 0, 0, GRADIENT), "cid": cid},
            {"address": Address("t0", 0, 0, PARTIAL_UPDATE), "cid": cid},
        ])
        gradients = yield from client.lookup(0, 0, GRADIENT)
        partials = yield from client.lookup(0, 0, PARTIAL_UPDATE)
        return ack, gradients + partials

    assert run(sim, scenario()) \
        == ({"accepted": False, "reason": "gradients only"}, [])


def test_verifiable_requires_committers():
    sim = Simulator()
    network = Network(sim)
    network.add_host("directory")
    transport = Transport(network)
    dht = DHT(sim)
    with pytest.raises(ValueError):
        DirectoryService(sim, transport, dht, verifiable=True)


# -- the state against a plain-dict model -------------------------------------

UPLOADERS = ["t0", "t1", "t2", "t3"]
PARTITIONS = 2
ASSIGNMENT = {(uploader, partition): f"agg-{index % 2}"
              for index, uploader in enumerate(UPLOADERS)
              for partition in range(PARTITIONS)}
KINDS = [GRADIENT, PARTIAL_UPDATE, UPDATE]
SCOPES = [None, "agg-0", "agg-1"]
#: Blob ``b``'s CID, and the vector its gradient commitment commits to.
CIDS = [compute_cid(b"blob-%d" % blob) for blob in range(4)]
VECTORS = [(blob + 1, 2, 3, 4) for blob in range(4)]
_COMMITTER = []


def _committer():
    if not _COMMITTER:
        _COMMITTER.append(PartitionCommitter(PARTITION_LEN))
    return _COMMITTER[0]


@functools.lru_cache(maxsize=None)
def _commit(vector):
    """The commitment to ``vector``.  An unblinded Pedersen commitment
    is additively homomorphic, so the product of the gradients'
    commitments must equal the commitment of their summed vectors."""
    return _committer().params.commit(list(vector))


def _ack(reason):
    return {"accepted": True} if reason is None \
        else {"accepted": False, "reason": reason}


class DirectoryModel:
    """What the directory should hold, in plain dicts.

    ``entries`` maps ``(partition, iteration, kind)`` to address ->
    ``[CID, verified]`` in first-registration order, and ``iterations``
    each iteration to its addresses in that order; ``sums`` maps
    ``(partition, iteration, scope)`` to the summed vector and count of
    the gradients accumulated there.  ``events`` is what the bus should
    have carried.
    """

    def __init__(self, verifiable):
        self.verifiable = verifiable
        self.entries = {}
        self.iterations = {}
        self.sums = {}
        self.cutoffs = {}
        self.pending = []
        self.rejections = []
        self.events = []

    def _store(self, address, blob, verified):
        key = (address.partition_id, address.iteration, address.kind)
        self.entries.setdefault(key, {})[address] = [CIDS[blob], verified]
        self.iterations.setdefault(address.iteration, {})[address] = key

    def register(self, address, blob, now):
        """Why the registration is refused, or None."""
        bucket = self.entries.get(
            (address.partition_id, address.iteration, address.kind), {})
        if address.kind == UPDATE:
            kept = {kept: cid for kept, (cid, verified) in bucket.items()
                    if verified is not False}
            if kept:
                return None if kept.get(address) == CIDS[blob] \
                    else "duplicate"
            self._store(address, blob, None if self.verifiable else True)
            if self.verifiable:
                self.pending.append(address)
            return None
        if address in bucket:
            return None if bucket[address][0] == CIDS[blob] \
                else "conflicting cid"
        if address.kind == PARTIAL_UPDATE:
            self._store(address, blob, None)
            return None
        if now > self.cutoffs.get(address.iteration, now):
            return "past t_train"
        self._store(address, blob, None)
        partition, iteration = address.partition_id, address.iteration
        self.events.append(("registered", now, address))
        aggregator = ASSIGNMENT[(address.uploader_id, partition)]
        for scope in (None, aggregator):
            vector, count = self.sums.get((partition, iteration, scope),
                                          ((0,) * PARTITION_LEN, 0))
            self.sums[partition, iteration, scope] = (
                tuple(a + b for a, b in zip(vector, VECTORS[blob])),
                count + 1)
        self.events.append(("accumulated", now, address, aggregator,
                            self.sums[partition, iteration, None][1]))
        return None

    def register_batch(self, rows, intact, now):
        if not intact:
            return _ack("bad accumulation")
        if any(address.kind != GRADIENT for address, _ in rows):
            return _ack("gradients only")
        reasons = [self.register(address, blob, now)
                   for address, blob in rows]
        return {"accepted": all(reason is None for reason in reasons)}

    def lookup(self, partition, iteration, kind, aggregator):
        return [
            (address.uploader_id, cid)
            for address, (cid, verified) in self.entries.get(
                (partition, iteration, kind), {}).items()
            if (kind != UPDATE or verified is True)
            and (kind != GRADIENT or aggregator is None or aggregator
                 == ASSIGNMENT[(address.uploader_id, partition)])
        ]

    def accumulated(self, partition, iteration, scope):
        vector, count = self.sums.get((partition, iteration, scope),
                                      (None, 0))
        return (None if vector is None else _commit(vector)), count

    def reject(self, address, reason, now):
        key = (address.partition_id, address.iteration, UPDATE)
        self.entries[key][address][1] = False
        self.rejections.append((address, reason))
        self.events.append(("failed", now, str(address), reason))

    def verdict(self, address, honest, now):
        _, count = self.sums.get(
            (address.partition_id, address.iteration, None), (None, 0))
        if not count:
            self.reject(address, "no gradient commitments accumulated", now)
            return
        self.events.append(("verified", now, address, honest, count))
        if honest:
            key = (address.partition_id, address.iteration, UPDATE)
            self.entries[key][address][1] = True
        else:
            self.reject(
                address, "commitment mismatch (dropped or altered gradients)",
                now)


def _as_model_event(event):
    if isinstance(event, GradientRegistered):
        return ("registered", event.at, Address(
            event.uploader, event.partition_id, event.iteration, GRADIENT))
    if isinstance(event, CommitmentAccumulated):
        return ("accumulated", event.at, Address(
            event.uploader, event.partition_id, event.iteration, GRADIENT),
            event.aggregator, event.count)
    if isinstance(event, UpdateVerified):
        return ("verified", event.at, Address(
            event.aggregator, event.partition_id, event.iteration, UPDATE),
            event.ok, event.expected_count)
    return ("failed", event.at, event.label, event.reason)


#: Every (address, blob) a registration may carry.
REGISTRATIONS = [(Address(uploader, partition, iteration, kind), blob)
                 for uploader in UPLOADERS for partition in range(PARTITIONS)
                 for iteration in range(2) for kind in KINDS
                 for blob in range(4)]
#: A batch mostly holds gradients and now and then another record.
BATCH_ROWS = [row for row in REGISTRATIONS
              if row[0].kind == GRADIENT] * 4 + REGISTRATIONS
LOOKUPS = [(partition, iteration, kind, aggregator)
           for partition in range(PARTITIONS) for iteration in range(2)
           for kind in KINDS for aggregator in SCOPES]
PRODUCTS = [(partition, iteration, scope) for partition in range(PARTITIONS)
            for iteration in range(2) for scope in SCOPES]


def index_into(values):
    """One of ``values``, drawn as its index: a strategy's repr is built
    on every draw of a rule, and one over the values themselves (or over
    a lambda, whose source is read) would be built at length."""
    return st.sampled_from(range(len(values)))


class DirectoryMachine(RuleBasedStateMachine):
    """Any sequence of verbs, cutoffs and verdicts leaves
    :class:`DirectoryState` answering, holding and publishing what the
    plain-dict model does — no simulator, no wire."""

    @initialize(verifiable=st.booleans())
    def build(self, verifiable):
        bus = EventBus()
        self.events = []
        bus.subscribe(self.events.append, GradientRegistered,
                      CommitmentAccumulated, UpdateVerified,
                      VerificationFailed)
        committers = {partition: _committer()
                      for partition in range(PARTITIONS)}
        self.state = DirectoryState(bus, committers, ASSIGNMENT, verifiable)
        self.model = DirectoryModel(verifiable)
        self.now = 0.0

    @rule(row=index_into(REGISTRATIONS))
    def register(self, row):
        address, blob = REGISTRATIONS[row]
        commitment = (_commit(VECTORS[blob]) if address.kind == GRADIENT
                      else None)
        reply = self.state.register(address, CIDS[blob], commitment,
                                    self.now)
        assert reply == _ack(self.model.register(address, blob, self.now))

    @precondition(lambda self: self.model.iterations)
    @rule(pick=st.integers(0, 63), same=st.booleans())
    def reregister(self, pick, same):
        """A retry of a registered address (same CID) or a conflicting
        registration (another CID)."""
        registered = [(address, key)
                      for keys in self.model.iterations.values()
                      for address, key in keys.items()]
        address, key = registered[pick % len(registered)]
        blob = CIDS.index(self.model.entries[key][address][0])
        self.register(REGISTRATIONS.index(
            (address, blob if same else (blob + 1) % len(CIDS))))

    @rule(rows=st.lists(index_into(BATCH_ROWS), min_size=1, max_size=3),
          intact=st.sampled_from([True, True, True, False]))
    def batch(self, rows, intact):
        rows = [BATCH_ROWS[row] for row in rows]
        records = [{"address": address, "cid": CIDS[blob],
                    "commitment": _commit(VECTORS[blob])}
                   for address, blob in rows]
        accumulation = accumulate_cids([CIDS[blob] for _, blob in rows])
        reply = self.state.register_batch(
            records, accumulation if intact
            else bytes([accumulation[0] ^ 1]) + accumulation[1:],
            self.now)
        assert reply == self.model.register_batch(rows, intact, self.now)

    @rule(query=index_into(LOOKUPS))
    def lookup(self, query):
        query = LOOKUPS[query]
        rows = self.state.lookup(*query)
        assert [(row["uploader_id"], row["cid"]) for row in rows] \
            == self.model.lookup(*query)
        for row in rows:
            assert row["commitment"] == (
                _commit(VECTORS[CIDS.index(row["cid"])])
                if query[2] == GRADIENT else None)

    @rule(key=index_into(PRODUCTS))
    def accumulated(self, key):
        key = PRODUCTS[key]
        reply = self.state.accumulated(*key)
        assert (reply["commitment"], reply["count"]) \
            == self.model.accumulated(*key)

    @rule(iteration=st.sampled_from([0, 1]))
    def arm_cutoff(self, iteration):
        """The iteration's cutoff is now, and then the clock moves past
        it."""
        self.state.begin_iteration(iteration, self.now)
        self.model.cutoffs[iteration] = self.now
        self.now += 1.0

    @precondition(lambda self: self.model.pending)
    @rule(outcome=st.sampled_from(["honest", "altered", "unavailable"]))
    def verify(self, outcome):
        """Judge the oldest update waiting for its fetch, as the serve
        loop does once the blob arrived (or did not)."""
        entry = self.state.to_verify.popleft()
        address = self.model.pending.pop(0)
        assert entry.address == address
        if outcome == "unavailable":
            self.state.reject(address, "update retrieval failed: gone",
                              self.now)
            self.model.reject(address, "update retrieval failed: gone",
                              self.now)
            return
        vector, count = self.model.sums.get(
            (address.partition_id, address.iteration, None),
            ((0,) * PARTITION_LEN, 0))
        if outcome == "altered":
            vector = (vector[0] + 1,) + vector[1:]
        self.state.verdict(address, _commit(vector), count, self.now)
        self.model.verdict(address, outcome == "honest", self.now)

    @rule(cutoff=st.sampled_from([0, 1, 2]))
    def entries_before(self, cutoff):
        assert [(entry.address, entry.cid)
                for entry in self.state.entries_before(cutoff)] == [
            (address, self.model.entries[key][address][0])
            for iteration in sorted(self.model.iterations)
            if iteration < cutoff
            for address, key in self.model.iterations[iteration].items()
        ]

    @invariant()
    def publishes_and_rejects_as_the_model(self):
        assert [_as_model_event(event) for event in self.events] \
            == self.model.events
        assert [(rejection.address, rejection.reason)
                for rejection in self.state.rejections] \
            == self.model.rejections
        assert [entry.address for entry in self.state.to_verify] \
            == self.model.pending

    def teardown(self):
        """Every entry, every lookup and every product is the model's."""
        if not hasattr(self, "model"):
            return
        for partition, iteration, kind, aggregator in LOOKUPS:
            if aggregator is None:
                assert [(entry.address, entry.cid, entry.verified)
                        for entry in self.state.entries_for(
                            partition, iteration, kind)] \
                    == [(address, cid, verified) for address,
                        (cid, verified) in self.model.entries.get(
                            (partition, iteration, kind), {}).items()]
        for query in range(len(LOOKUPS)):
            self.lookup(query)
        for key in range(len(PRODUCTS)):
            self.accumulated(key)


#: Short runs keep 500 examples near 2.5 s: most of that is Hypothesis
#: choosing rules, and the teardown compares the whole state anyway.
DirectoryMachine.TestCase.settings = settings(
    max_examples=500, stateful_step_count=6, deadline=None)
test_the_state_matches_a_dict_model = DirectoryMachine.TestCase


# -- the verifier's blame, on the state alone ----------------------------------

#: Trainer ``j``'s gradient commits to 2**j in the first coordinate, so
#: every subset of them has its own product; its gradient of the round
#: before commits to 2**j in the second, so no subset of this round's
#: opens that round's product.
BLAME_TRAINERS = [f"trainer-{j}" for j in range(10)]
BLAME_CIDS = [compute_cid(b"gradient-%d" % j) for j in range(10)]


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_a_rejected_update_is_blamed_from_the_state(data):
    """Any claim the state rejects is classified from its own entries and
    products: a k-subset of this round's gradients (lazy or dropped,
    naming the complement), the full product altered, the round before's
    product (replayed), or garbage (by its counter alone)."""
    n = data.draw(st.integers(1, 10), label="n")
    m = data.draw(st.integers(1, 10), label="gradients the round before")
    order = data.draw(st.permutations(range(n)), label="registration order")
    claim_kind = data.draw(st.sampled_from(
        ["subset", "altered", "replayed", "garbage"] if n > 1
        else ["altered", "replayed", "garbage"]), label="claim")
    events = []
    bus = EventBus()
    bus.subscribe(events.append, VerificationFailed)
    state = DirectoryState(bus, {0: _committer()}, {}, True)
    for iteration, trainers, vector in (
            (0, range(m), lambda j: (0, 2 ** j, 0, 0)),
            (1, order, lambda j: (2 ** j, 0, 0, 0))):
        for j in trainers:
            state.register(Address(BLAME_TRAINERS[j], 0, iteration, GRADIENT),
                           BLAME_CIDS[j], _commit(vector(j)), 0.0)
    curve = _committer().curve
    full = state.accumulated(0, 1, None)["commitment"]
    names = tuple(BLAME_TRAINERS[:n])
    cids = tuple(str(cid) for cid in BLAME_CIDS[:n])
    expected = {"kept_trainers": (), "dropped_trainers": (),
                "dropped_cids": ()}
    if claim_kind == "subset":
        k = data.draw(st.integers(1, n - 1), label="k")
        kept = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=k,
                                         max_size=k, unique=True),
                                label="kept"))
        claim = Commitment.product(
            [_commit((2 ** j, 0, 0, 0)) for j in kept], curve)
        dropped = [j for j in range(n) if j not in kept]
        expected.update(
            classification="lazy" if k == 1 else "dropped",
            kept_trainers=tuple(names[j] for j in kept),
            dropped_trainers=tuple(names[j] for j in dropped),
            dropped_cids=tuple(cids[j] for j in dropped))
    elif claim_kind == "altered":
        k, claim = n, full.combine(_commit((0, 0, 1, 0)))
        expected.update(classification="altered", kept_trainers=names)
    elif claim_kind == "replayed":
        k, claim = m, state.accumulated(0, 0, None)["commitment"]
        expected.update(classification="replayed", dropped_trainers=names,
                        dropped_cids=cids)
    else:
        k, claim = data.draw(st.integers(0, n + 1), label="k"), \
            _commit((0, 0, 0, 1))
        if k == n:
            expected.update(classification="altered", kept_trainers=names)
        else:
            expected["classification"] = \
                "dropped" if 1 <= k < n else "unknown"
    address = Address("aggregator-0", 0, 1, UPDATE)
    state.register(address, CIDS[0], None, 0.0)
    state.verdict(address, claim, float(k), 1.0)
    [failure] = events
    assert {key: getattr(failure, key) for key in expected} == expected
    assert (failure.expected_count, failure.claimed_counter) == (n, k)
    if claim_kind == "replayed":
        assert failure.detail.endswith(f"({m} stale contributions)")
    assert failure.aggregator == "aggregator-0"
