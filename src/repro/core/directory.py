"""The directory service (Sec. III-C, extended with Sec. IV verification).

Maps addressing tuples to IPFS CIDs, accumulates Pedersen commitment
products per partition (and per aggregator's trainer subset), and — in
verifiable mode — checks every claimed global update against the
accumulated commitment before revealing it to trainers.

Run by the trusted bootstrapper: "the directory service receives orders of
magnitude fewer data per iteration than the aggregators combined do".

There is one deployment shape and one way in:

- :class:`DirectoryService` is one server process on the emulated
  network answering register/lookup/accumulate queries for the keys
  that arrive at its host.
- :class:`ShardedDirectory` is the service as a session deploys it: a
  group of 1..N such servers, each on its own host.  The paper's single
  well-known directory is the group of one (on host ``"directory"``);
  the Sec. VI load study spreads the ``(partition, iteration)`` key
  space over more (see :mod:`repro.core.dirshard` for the placement).
- :class:`DirectoryClient` is what every participant holds: it places
  each request on the key's owners through the shared
  :class:`~repro.core.dirshard.ShardMap`, fails over down the owner
  list, and splits the key-spanning verb (batched registration) per
  owner.

Commitment merge: every server folds gradient commitments into its own
:class:`_PartitionAccumulator`; the accumulated commitment is the
servers' subtotals combined in shard order.  Pedersen commitments add
on an elliptic curve — commutative and associative — so the merged
product is byte-equal to the product one server would have folded in
arrival order, and the :mod:`repro.obs.monitors` independent
recomputation still gates it (a hypothesis property test pins this).

Simulation compromise (documented in DESIGN.md): server *reads* — entry
lookups, duplicate checks and accumulated-commitment queries — fold
over the peer servers' state locally instead of exchanging inter-shard
replication traffic, standing in for a replicated log kept in sync out
of band (Cassano et al.'s smart-contract directory).  Writes, wire
messages, queueing and the serialized processing delay stay strictly
per-server; those are what the evaluation measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto import Commitment
from ..faults.retry import RetryExhaustedError, RetryPolicy
from ..ipfs import CID, DHT, IPFSClient
from ..net import Message, Transport
from ..obs.events import (
    CommitmentAccumulated,
    DirectoryRequest,
    GradientRegistered,
    RetryExhausted,
    UpdateVerified,
    VerificationFailed,
)
from ..sim import Simulator
from .addressing import Address, GRADIENT, PARTIAL_UPDATE, UPDATE
from .dirshard import ShardMap
from .verification import PartitionCommitter

__all__ = ["DirectoryClient", "DirectoryEntry", "DirectoryService",
           "RejectionRecord", "ShardedDirectory"]

KIND_REGISTER = "dir.register"
KIND_REGISTER_BATCH = "dir.register.batch"
KIND_REGISTER_ACK = "dir.register.ack"
KIND_LOOKUP = "dir.lookup"
KIND_LOOKUP_REPLY = "dir.lookup.reply"
KIND_ACCUMULATED = "dir.accumulated"
KIND_ACCUMULATED_REPLY = "dir.accumulated.reply"

#: Wire sizes (bytes): an address + CID + commitment record, a lookup
#: query, and one lookup result row.
REGISTER_SIZE = 448
QUERY_SIZE = 192
ENTRY_WIRE_SIZE = 160
#: Incremental wire bytes per additional record in a batched
#: registration (``register_batch``).
BATCH_RECORD_SIZE = 96


@dataclass
class DirectoryEntry:
    """One registered object."""

    address: Address
    cid: CID
    commitment: Optional[Commitment]
    registered_at: float
    #: Updates only: None = pending verification, True/False = outcome.
    verified: Optional[bool] = None


@dataclass
class RejectionRecord:
    """A registered update that failed commitment verification."""

    address: Address
    reason: str
    rejected_at: float


@dataclass
class _PartitionAccumulator:
    """Running commitment products for one (partition, iteration)."""

    total: Commitment
    count: int = 0
    per_aggregator: Dict[str, Commitment] = field(default_factory=dict)
    per_aggregator_count: Dict[str, int] = field(default_factory=dict)


class DirectoryService:
    """One bootstrapper-run metadata server (one shard of the group).

    Writes (entries, accumulators, counters, queueing) stay local; the
    read accessors fold over :attr:`peers` so duplicate checks,
    verification and client reads see the whole group — the
    replicated-log stand-in described in the module docstring.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        dht: DHT,
        name: str = "directory",
        committers: Optional[Dict[int, PartitionCommitter]] = None,
        trainer_assignment: Optional[Dict[Tuple[str, int], str]] = None,
        verifiable: bool = False,
        expected_trainers: int = 0,
        processing_delay: float = 0.0,
    ):
        """
        Parameters
        ----------
        committers:
            partition_id -> :class:`PartitionCommitter`; required when
            ``verifiable``.
        trainer_assignment:
            ``(trainer_id, partition_id) -> aggregator_id``; lets the
            directory maintain per-aggregator accumulated commitments
            (Sec. IV-B) and answer takeover lookups.
        processing_delay:
            Simulated seconds of serialized server work per request.
            Zero by default; set it to study the directory as a
            bottleneck (the Sec. VI load concern) — requests then queue
            behind each other.
        """
        if verifiable and not committers:
            raise ValueError("verifiable mode needs partition committers")
        if processing_delay < 0:
            raise ValueError("processing_delay must be non-negative")
        self.sim = sim
        self.name = name
        self.verifiable = verifiable
        self.processing_delay = processing_delay
        self.committers = committers or {}
        self.trainer_assignment = trainer_assignment or {}
        self.expected_trainers = expected_trainers
        self._entries: Dict[Address, DirectoryEntry] = {}
        #: ``_entries`` bucketed the two ways it is asked for, so a lookup
        #: costs its answer and GC costs the old rounds — not every entry
        #: ever registered.  Buckets are address-keyed like ``_entries``:
        #: a re-registration replaces the entry in its first-insertion
        #: position, which is the order lookups have always replied in.
        self._by_key: Dict[Tuple[int, int, str],
                           Dict[Address, DirectoryEntry]] = {}
        self._by_iteration: Dict[int, Dict[Address, DirectoryEntry]] = {}
        self._accumulators: Dict[Tuple[int, int], _PartitionAccumulator] = {}
        #: iteration -> gradient-registration cutoff (the schedule's
        #: t_train).  Closes the race between a late-straddling upload
        #: and the aggregators' final post-deadline poll: a gradient
        #: commitment must never enter the accumulated product unless the
        #: aggregators can still see it.
        self._gradient_cutoff: Dict[int, float] = {}
        #: First gradient registration per iteration (telemetry: the
        #: paper's aggregation-delay clock starts here).
        self.first_gradient_time: Dict[int, float] = {}
        #: Updates that failed verification.
        self.rejections: List[RejectionRecord] = []
        #: Query counters (Sec. VI worries about directory load).
        self.register_count = 0
        self.lookup_count = 0
        #: Load ledger: requests dequeued and serialized server seconds
        #: spent.
        self.served_units = 0
        self.busy_seconds = 0.0
        #: The servers whose state the read accessors fold over, in
        #: shard order (stable, so replays are byte-identical): this one
        #: alone until a :class:`ShardedDirectory` joins it to its group.
        self.peers: List["DirectoryService"] = [self]
        #: Stamped onto ``DirectoryRequest``/``CommitmentAccumulated``
        #: events; the group names its members when it has several.
        self.shard_label: Optional[str] = None
        self.endpoint = transport.endpoint(name)
        self._ipfs = IPFSClient(name, transport, dht)
        self._server = sim.process(self._serve(), name=f"directory:{name}")

    # -- local inspection (no network; used by the session and tests) -----------

    def begin_iteration(self, iteration: int, t_train: float) -> None:
        """Arm the gradient-registration cutoff for ``iteration``."""
        self._gradient_cutoff[iteration] = t_train

    def entry(self, address: Address) -> Optional[DirectoryEntry]:
        for peer in self.peers:
            found = peer._entries.get(address)
            if found is not None:
                return found
        return None

    def entries_for(self, partition_id: int, iteration: int,
                    kind: str) -> List[DirectoryEntry]:
        key = (partition_id, iteration, kind)
        results: List[DirectoryEntry] = []
        for peer in self.peers:
            bucket = peer._by_key.get(key)
            if bucket:
                results.extend(bucket.values())
        return results

    def entries_before(self, iteration: int) -> List[DirectoryEntry]:
        """All entries from iterations strictly before ``iteration``
        (candidates for storage garbage collection), oldest iteration
        first."""
        return [
            entry
            for older in sorted(self._by_iteration) if older < iteration
            for entry in self._by_iteration[older].values()
        ]

    def _store(self, entry: DirectoryEntry) -> None:
        """Record ``entry`` under its address in every index."""
        address = entry.address
        self._entries[address] = entry
        key = (address.partition_id, address.iteration, address.kind)
        self._by_key.setdefault(key, {})[address] = entry
        self._by_iteration.setdefault(address.iteration, {})[address] = entry

    def inbox_depth(self) -> int:
        """Requests queued behind the serve loop (load telemetry)."""
        return len(self.endpoint.inbox.items)

    def accumulated_commitment(
        self, partition_id: int, iteration: int,
        aggregator_id: Optional[str] = None,
    ) -> Tuple[Optional[Commitment], int]:
        """(product, contributor count) for a partition or one aggregator.

        The peers' subtotals folded in shard order.  EC-point addition
        is commutative and associative, so this equals one server's
        product over the same contributions in arrival order — the
        property the merge-algebra tests pin down.
        """
        key = (partition_id, iteration)
        total: Optional[Commitment] = None
        count = 0
        for peer in self.peers:
            accumulator = peer._accumulators.get(key)
            if accumulator is None:
                continue
            if aggregator_id is None:
                commitment = accumulator.total
                contributions = accumulator.count
            else:
                commitment = accumulator.per_aggregator.get(aggregator_id)
                contributions = accumulator.per_aggregator_count.get(
                    aggregator_id, 0)
            if commitment is not None:
                total = commitment if total is None \
                    else total.combine(commitment)
                count += contributions
        return total, count

    # -- server -------------------------------------------------------------------

    def _serve(self):
        # The directory host's endpoint is shared with its own IPFS client
        # (used to fetch updates for verification), so only consume
        # directory-protocol kinds here.
        served_kinds = (KIND_REGISTER, KIND_REGISTER_BATCH,
                        KIND_LOOKUP, KIND_ACCUMULATED)
        while True:
            message = yield self.endpoint.inbox.get(
                lambda m: m.kind in served_kinds
            )
            bus = self.sim.bus
            if bus.wants(DirectoryRequest):
                bus.publish(DirectoryRequest(
                    at=self.sim.now, kind=message.kind,
                    shard=self.shard_label,
                ))
            self.served_units += 1
            if self.processing_delay > 0:
                # Serialized server work: requests queue behind it.
                self.busy_seconds += self.processing_delay
                yield self.sim.timeout(self.processing_delay)
            if message.kind == KIND_REGISTER:
                self._handle_register(message)
            elif message.kind == KIND_REGISTER_BATCH:
                self._handle_register_batch(message)
            elif message.kind == KIND_LOOKUP:
                self._handle_lookup(message)
            elif message.kind == KIND_ACCUMULATED:
                self._handle_accumulated(message)

    def _handle_register(self, message: Message) -> None:
        """Gradients and partial updates are answered on the spot; a
        global update may have to be fetched and verified first, which
        takes simulated time, so only that one runs as a process."""
        payload = message.payload
        address: Address = payload["address"]
        cid: CID = payload["cid"]
        commitment: Optional[Commitment] = payload.get("commitment")
        self.register_count += 1

        if address.kind == GRADIENT:
            accepted = self._register_gradient(address, cid, commitment)
            payload = {"accepted": accepted}
            if not accepted:
                payload["reason"] = "past t_train"
            self.endpoint.respond(message, KIND_REGISTER_ACK,
                                  payload=payload, size=ENTRY_WIRE_SIZE)
        elif address.kind == PARTIAL_UPDATE:
            self._store(DirectoryEntry(
                address=address, cid=cid, commitment=commitment,
                registered_at=self.sim.now,
            ))
            self.endpoint.respond(message, KIND_REGISTER_ACK,
                                  payload={"accepted": True},
                                  size=ENTRY_WIRE_SIZE)
        else:
            self.sim.process(
                self._register_update(message, address, cid, commitment),
                name=f"directory:{message.kind}",
            )

    def _register_update(self, message: Message, address: Address, cid: CID,
                         commitment: Optional[Commitment]):
        # Global update: only the first (verified) one is kept.
        existing = [
            entry for entry in self.entries_for(
                address.partition_id, address.iteration, UPDATE)
            if entry.verified is not False
        ]
        if existing:
            # An uploader re-announcing its own kept entry is a retry
            # (lost ack), not a losing race: acknowledge idempotently.
            retried = any(
                entry.address.uploader_id == address.uploader_id
                and entry.cid == cid for entry in existing
            )
            payload = {"accepted": True} if retried else \
                {"accepted": False, "reason": "duplicate"}
            self.endpoint.respond(
                message, KIND_REGISTER_ACK,
                payload=payload, size=ENTRY_WIRE_SIZE,
            )
            yield self.sim.timeout(0)
            return
        entry = DirectoryEntry(
            address=address, cid=cid, commitment=commitment,
            registered_at=self.sim.now,
            verified=None if self.verifiable else True,
        )
        self._store(entry)
        self.endpoint.respond(message, KIND_REGISTER_ACK,
                              payload={"accepted": True},
                              size=ENTRY_WIRE_SIZE)
        if self.verifiable:
            yield from self._verify_update(entry)
        else:
            yield self.sim.timeout(0)

    def _handle_register_batch(self, message: Message) -> None:
        """Sec. VI batching: all of a trainer's gradient partitions in one
        message, integrity-bound by an accumulation over the CIDs."""
        from .offload import accumulate_cids  # local import: avoid cycle

        payload = message.payload
        records = payload["records"]
        self.register_count += 1
        expected = accumulate_cids([record["cid"] for record in records])
        if expected != payload["accumulation"]:
            self.endpoint.respond(
                message, KIND_REGISTER_ACK,
                payload={"accepted": False, "reason": "bad accumulation"},
                size=ENTRY_WIRE_SIZE,
            )
            return
        all_accepted = True
        for record in records:
            address: Address = record["address"]
            if address.kind != GRADIENT:
                continue  # batching is for gradient registrations only
            all_accepted &= self._register_gradient(
                address, record["cid"], record.get("commitment")
            )
        self.endpoint.respond(message, KIND_REGISTER_ACK,
                              payload={"accepted": all_accepted},
                              size=ENTRY_WIRE_SIZE)

    def _register_gradient(self, address: Address, cid: CID,
                           commitment: Optional[Commitment]) -> bool:
        """Record a gradient; False if past the iteration's cutoff."""
        # ``entry`` (not ``_entries.get``): a replica must see a
        # registration its peer already accepted, or a failover retry
        # would accumulate the same commitment twice.
        existing = self.entry(address)
        if existing is not None and existing.cid == cid:
            # Idempotent retry: the first registration landed but its ack
            # was lost.  Acknowledge without re-accumulating the
            # commitment (accumulating twice would poison verification).
            return True
        cutoff = self._gradient_cutoff.get(address.iteration)
        if cutoff is not None and self.sim.now > cutoff:
            return False
        self._store(DirectoryEntry(
            address=address, cid=cid, commitment=commitment,
            registered_at=self.sim.now,
        ))
        self.first_gradient_time.setdefault(address.iteration, self.sim.now)
        bus = self.sim.bus
        if bus.wants(GradientRegistered):
            bus.publish(GradientRegistered(
                at=self.sim.now, iteration=address.iteration,
                uploader=address.uploader_id,
                partition_id=address.partition_id,
                cid=str(cid),
            ))
        if commitment is None:
            return True
        key = (address.partition_id, address.iteration)
        accumulator = self._accumulators.get(key)
        if accumulator is None:
            curve = self.committers[address.partition_id].curve
            accumulator = _PartitionAccumulator(
                total=Commitment.identity(curve)
            )
            self._accumulators[key] = accumulator
        accumulator.total = accumulator.total.combine(commitment)
        accumulator.count += 1
        aggregator_id = self.trainer_assignment.get(
            (address.uploader_id, address.partition_id)
        )
        if bus.wants(CommitmentAccumulated):
            bus.publish(CommitmentAccumulated(
                at=self.sim.now, iteration=address.iteration,
                partition_id=address.partition_id,
                uploader=address.uploader_id,
                aggregator=aggregator_id,
                commitment=commitment,
                accumulated=accumulator.total,
                count=accumulator.count,
                shard=self.shard_label,
            ))
        if aggregator_id is not None:
            curve = self.committers[address.partition_id].curve
            current = accumulator.per_aggregator.get(
                aggregator_id, Commitment.identity(curve)
            )
            accumulator.per_aggregator[aggregator_id] = (
                current.combine(commitment)
            )
            accumulator.per_aggregator_count[aggregator_id] = (
                accumulator.per_aggregator_count.get(aggregator_id, 0) + 1
            )
        return True

    def _reject(self, entry: DirectoryEntry, reason: str) -> None:
        entry.verified = False
        self.rejections.append(RejectionRecord(
            address=entry.address, reason=reason,
            rejected_at=self.sim.now,
        ))
        bus = self.sim.bus
        if bus.wants(VerificationFailed):
            bus.publish(VerificationFailed(
                at=self.sim.now, iteration=entry.address.iteration,
                label=str(entry.address), scope="update",
                partition_id=entry.address.partition_id,
                aggregator=entry.address.uploader_id,
                reason=reason,
            ))

    def _verify_update(self, entry: DirectoryEntry):
        """Download the claimed update and check the commitment product."""
        address = entry.address
        expected, count = self.accumulated_commitment(
            address.partition_id, address.iteration
        )
        if expected is None or count == 0:
            self._reject(entry, "no gradient commitments accumulated")
            return
        try:
            blob = yield from self._ipfs.get(entry.cid)
        except Exception as exc:  # unavailable/corrupt update
            self._reject(entry, f"update retrieval failed: {exc}")
            return
        committer = self.committers[address.partition_id]
        claimed, claimed_counter = committer.open_blob(blob)
        ok = claimed == expected
        bus = self.sim.bus
        if bus.wants(UpdateVerified):
            bus.publish(UpdateVerified(
                at=self.sim.now, iteration=address.iteration,
                partition_id=address.partition_id,
                aggregator=address.uploader_id,
                ok=ok, expected_count=count,
                claimed_counter=claimed_counter,
                expected_commitment=expected,
                claimed_commitment=claimed,
                cid=str(entry.cid),
            ))
        if ok:
            entry.verified = True
        else:
            self._reject(
                entry, "commitment mismatch (dropped or altered gradients)"
            )

    def _visible(self, entry: DirectoryEntry) -> bool:
        """Updates must be verified (in verifiable mode) to be served."""
        if entry.address.kind != UPDATE:
            return True
        return entry.verified is True

    def _handle_lookup(self, message: Message) -> None:
        query = message.payload
        self.lookup_count += 1
        results = []
        for entry in self.entries_for(
            query["partition_id"], query["iteration"], query["kind"]
        ):
            if not self._visible(entry):
                continue
            if query.get("uploader_id") is not None \
                    and entry.address.uploader_id != query["uploader_id"]:
                continue
            aggregator_filter = query.get("aggregator_id")
            if aggregator_filter is not None \
                    and entry.address.kind == GRADIENT:
                assigned = self.trainer_assignment.get(
                    (entry.address.uploader_id, entry.address.partition_id)
                )
                if assigned != aggregator_filter:
                    continue
            results.append({
                "uploader_id": entry.address.uploader_id,
                "cid": entry.cid,
                "commitment": entry.commitment,
            })
        self.endpoint.respond(
            message, KIND_LOOKUP_REPLY, payload=results,
            size=ENTRY_WIRE_SIZE * max(1, len(results)),
        )

    def _handle_accumulated(self, message: Message) -> None:
        query = message.payload
        commitment, count = self.accumulated_commitment(
            query["partition_id"], query["iteration"],
            query.get("aggregator_id"),
        )
        self.endpoint.respond(
            message, KIND_ACCUMULATED_REPLY,
            payload={"commitment": commitment, "count": count},
            size=ENTRY_WIRE_SIZE,
        )


class ShardedDirectory:
    """The directory service as deployed: a group of 1..N shard servers.

    Presents one server's surface everywhere the session, the fault
    injector and the observability layer touch it — ``begin_iteration``/
    ``entry``/``entries_for``/``entries_before``/
    ``accumulated_commitment``/``rejections``/``first_gradient_time``/
    the load counters/``inbox_depth`` — with each accessor aggregating
    over the shard list in shard order (stable, so replays are
    byte-identical).
    """

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        dht: DHT,
        shard_names: Sequence[str],
        committers: Optional[Dict[int, PartitionCommitter]] = None,
        trainer_assignment: Optional[Dict[Tuple[str, int], str]] = None,
        verifiable: bool = False,
        expected_trainers: int = 0,
        processing_delay: float = 0.0,
    ):
        if not shard_names:
            raise ValueError("need at least one shard")
        self.sim = sim
        self.shards: List[DirectoryService] = [
            DirectoryService(
                sim, transport, dht,
                name=name,
                committers=committers,
                trainer_assignment=trainer_assignment,
                verifiable=verifiable,
                expected_trainers=expected_trainers,
                processing_delay=processing_delay,
            )
            for name in shard_names
        ]
        self.shard_names: List[str] = [shard.name for shard in self.shards]
        self._by_name = {shard.name: shard for shard in self.shards}
        for shard in self.shards:
            shard.peers = self.shards
            # A group of one is the paper's single directory and stays
            # invisible: its events carry no shard label, so no
            # ``dir.shard.*`` counter appears.
            if len(self.shards) > 1:
                shard.shard_label = shard.name

    def shard(self, name: str) -> DirectoryService:
        """The shard named ``name`` (raises ``KeyError`` if unknown)."""
        return self._by_name[name]

    # -- the DirectoryService surface ----------------------------------------------

    def begin_iteration(self, iteration: int, t_train: float) -> None:
        for shard in self.shards:
            shard.begin_iteration(iteration, t_train)

    # Group-wide reads: every member folds over the same peer list, so
    # any one of them answers for the group.

    def entry(self, address: Address) -> Optional[DirectoryEntry]:
        return self.shards[0].entry(address)

    def entries_for(self, partition_id: int, iteration: int,
                    kind: str) -> List[DirectoryEntry]:
        return self.shards[0].entries_for(partition_id, iteration, kind)

    def accumulated_commitment(
        self, partition_id: int, iteration: int,
        aggregator_id: Optional[str] = None,
    ) -> Tuple[Optional[Commitment], int]:
        return self.shards[0].accumulated_commitment(
            partition_id, iteration, aggregator_id
        )

    def entries_before(self, iteration: int) -> List[DirectoryEntry]:
        results: List[DirectoryEntry] = []
        for shard in self.shards:
            results.extend(shard.entries_before(iteration))
        return results

    # -- aggregated telemetry ------------------------------------------------------

    @property
    def rejections(self) -> List[RejectionRecord]:
        records: List[RejectionRecord] = []
        for shard in self.shards:
            records.extend(shard.rejections)
        return records

    @property
    def first_gradient_time(self) -> Dict[int, float]:
        merged: Dict[int, float] = {}
        for shard in self.shards:
            for iteration, at in shard.first_gradient_time.items():
                if iteration not in merged or at < merged[iteration]:
                    merged[iteration] = at
        return merged

    @property
    def register_count(self) -> int:
        return sum(shard.register_count for shard in self.shards)

    @property
    def lookup_count(self) -> int:
        return sum(shard.lookup_count for shard in self.shards)

    @property
    def served_units(self) -> int:
        return sum(shard.served_units for shard in self.shards)

    @property
    def busy_seconds(self) -> float:
        """Serialized server seconds summed over all shards."""
        return sum(shard.busy_seconds for shard in self.shards)

    @property
    def max_busy_seconds(self) -> float:
        """The critical path: the busiest single shard's serialized work.

        Sustained registrations/sec is ``register_count /
        max_busy_seconds`` — the load-balance-sensitive figure sharding
        exists to raise.
        """
        return max(shard.busy_seconds for shard in self.shards)

    def inbox_depth(self) -> int:
        return sum(shard.inbox_depth() for shard in self.shards)


class DirectoryClient:
    """Participant-side access to the directory group.

    Key-addressed verbs place their ``(partition, iteration)`` key
    through the :class:`~repro.core.dirshard.ShardMap` shared with the
    session; the key-spanning verb — batched registration — splits per
    owner list, one message per owner list touched.  A
    client built without a map talks to the one well-known
    ``"directory"`` host.

    With ``request_timeout`` unset every call waits on the key's primary
    indefinitely — correct on honest infrastructure, where the directory
    always answers.  Under fault injection, give the client a timeout
    plus a :class:`~repro.faults.RetryPolicy`: each request then retries
    with bounded backoff, fails over down the owner list when an owner
    exhausts its budget, and raises
    :class:`~repro.faults.RetryExhaustedError` when every owner stays
    unreachable.  Server-side registration is idempotent, so a retried
    register whose first ack was lost is acknowledged harmlessly.
    """

    def __init__(self, name: str, transport: Transport,
                 shard_map: Optional[ShardMap] = None,
                 retry: Optional[RetryPolicy] = None,
                 request_timeout: Optional[float] = None):
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        self.name = name
        self.shard_map = (shard_map if shard_map is not None
                          else ShardMap(("directory",)))
        self.endpoint = transport.endpoint(name)
        self.sim = transport.sim
        self.retry = retry
        self.request_timeout = request_timeout

    def _call(self, kind: str, operation: str, size: float, payload,
              owners: Sequence[str]):
        """One request of message ``kind`` and wire ``size`` against
        ``owners``; ``operation`` labels it for the retry policy.

        The owner loop lives inside this one generator (not a frame per
        owner or per attempt): a directory poll is the hottest path of a
        run, and every extra ``yield from`` level is resumed per event.
        """
        policy = self.retry
        attempts = max(1, policy.max_attempts) if policy is not None else 1
        bus = self.sim.bus
        for dst in owners:
            for attempt in range(attempts):
                # (No timeout waits forever: the first owner answers.)
                response = yield self.endpoint.request(
                    dst, kind, payload, size, self.request_timeout)
                if response is not None:
                    return response.payload
                if attempt + 1 < attempts:
                    yield self.sim.timeout(policy.backoff(
                        attempt, key=f"{self.name}:{operation}"
                    ))
            # This owner's budget is spent: fail over to the next one.
            if bus.wants(RetryExhausted):
                bus.publish(RetryExhausted(
                    at=self.sim.now, actor=self.name,
                    operation=operation, attempts=attempts,
                ))
        raise RetryExhaustedError(operation, attempts)

    def register(self, address: Address, cid: CID,
                 commitment: Optional[Commitment] = None):
        """Register an object; returns the ack payload."""
        return (yield from self._call(
            KIND_REGISTER, "directory.register", REGISTER_SIZE, {
                "address": address, "cid": cid, "commitment": commitment,
            }, self.shard_map.owners(address.partition_id, address.iteration)))

    def register_batch(self, records):
        """Register many objects (Sec. VI batching), one message per
        owner list.

        ``records`` is a list of dicts with ``address``, ``cid`` and
        optional ``commitment``.  Each message carries one accumulated
        digest over its CIDs, which the server recomputes and checks;
        the merged ack is accepted only if every owner accepted its
        part.
        """
        from .offload import accumulate_cids  # local import: avoid cycle

        groups: Dict[Tuple[str, ...], list] = {}
        for record in records:
            address = record["address"]
            groups.setdefault(self.shard_map.owners(
                address.partition_id, address.iteration), []).append(record)
        accepted = True
        for owners, group in groups.items():
            ack = yield from self._call(
                KIND_REGISTER_BATCH, "directory.register",
                REGISTER_SIZE + BATCH_RECORD_SIZE * max(0, len(group) - 1),
                {"records": group,
                 "accumulation": accumulate_cids([r["cid"] for r in group])},
                owners)
            accepted &= bool(ack.get("accepted"))
        return {"accepted": accepted}

    def lookup(self, partition_id: int, iteration: int, kind: str,
               aggregator_id: Optional[str] = None,
               uploader_id: Optional[str] = None):
        """Query entries; returns a list of result dicts."""
        return (yield from self._call(
            KIND_LOOKUP, "directory.lookup", QUERY_SIZE, {
                "partition_id": partition_id,
                "iteration": iteration,
                "kind": kind,
                "aggregator_id": aggregator_id,
                "uploader_id": uploader_id,
            }, self.shard_map.owners(partition_id, iteration)))

    def accumulated(self, partition_id: int, iteration: int,
                    aggregator_id: Optional[str] = None):
        """Fetch an accumulated commitment; returns (commitment, count)."""
        payload = yield from self._call(
            KIND_ACCUMULATED, "directory.accumulated", QUERY_SIZE, {
                "partition_id": partition_id,
                "iteration": iteration,
                "aggregator_id": aggregator_id,
            }, self.shard_map.owners(partition_id, iteration))
        return payload["commitment"], payload["count"]
