"""The directory service (Sec. III-C, extended with Sec. IV verification).

Maps addressing tuples to IPFS CIDs, accumulates Pedersen commitment
products per partition (and per aggregator's trainer subset), and — in
verifiable mode — checks every claimed global update against the
accumulated commitment before revealing it to trainers.

Run by the trusted bootstrapper: "the directory service receives orders of
magnitude fewer data per iteration than the aggregators combined do".

- :class:`DirectoryService` is the one server process, on the
  well-known ``"directory"`` host, answering register/lookup/accumulate
  queries.
- :class:`DirectoryClient` is what every participant holds: one
  request per verb to that host, retried with bounded backoff under a
  :class:`~repro.faults.RetryPolicy`.
- :class:`DirectoryProfile` is the session's directory profile: the
  server's serialized ``processing_delay`` per request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

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
from .verification import PartitionCommitter

__all__ = ["DirectoryClient", "DirectoryEntry", "DirectoryProfile",
           "DirectoryService", "RejectionRecord"]

#: The well-known host the directory runs on.
DIRECTORY_HOST = "directory"

KIND_REGISTER = "dir.register"
KIND_REGISTER_BATCH = "dir.register.batch"
KIND_REGISTER_ACK = "dir.register.ack"
KIND_LOOKUP = "dir.lookup"
KIND_LOOKUP_REPLY = "dir.lookup.reply"
KIND_ACCUMULATED = "dir.accumulated"
KIND_ACCUMULATED_REPLY = "dir.accumulated.reply"
#: What the server answers; the directory host's endpoint is shared with
#: its own IPFS client (it fetches updates for verification).
_SERVED_KINDS = (KIND_REGISTER, KIND_REGISTER_BATCH, KIND_LOOKUP,
                 KIND_ACCUMULATED)

#: Wire sizes (bytes): an address + CID + commitment record, a lookup
#: query, and one lookup result row.
REGISTER_SIZE = 448
QUERY_SIZE = 192
ENTRY_WIRE_SIZE = 160
#: Incremental wire bytes per additional record in a batched
#: registration (``register_batch``).
BATCH_RECORD_SIZE = 96


@dataclass(frozen=True)
class DirectoryProfile:
    """How the directory service is deployed (the third profile, next to
    :class:`~repro.net.NetworkProfile` and :class:`~repro.faults.FaultPlan`).

    ``processing_delay`` is the serialized server seconds per request
    (zero by default; set it to study the directory as a bottleneck —
    requests then queue behind each other).
    """

    processing_delay: float = 0.0

    def __post_init__(self):
        if self.processing_delay < 0:
            raise ValueError("processing_delay must be non-negative")


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
    """The bootstrapper-run metadata server."""

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        dht: DHT,
        committers: Optional[Dict[int, PartitionCommitter]] = None,
        trainer_assignment: Optional[Dict[Tuple[str, int], str]] = None,
        verifiable: bool = False,
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
        self.name = DIRECTORY_HOST
        self.verifiable = verifiable
        self.processing_delay = processing_delay
        self.committers = committers or {}
        self.trainer_assignment = trainer_assignment or {}
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
        #: Updates that failed verification.
        self.rejections: List[RejectionRecord] = []
        #: Query counters (Sec. VI worries about directory load).
        self.register_count = 0
        self.lookup_count = 0
        self.endpoint = transport.endpoint(self.name)
        self.endpoint._take = self._take
        self._ipfs = IPFSClient(self.name, transport, dht)
        #: Requests that arrived while the serve loop was busy, in order.
        self._backlog: Deque[Message] = deque()
        #: What the serve loop waits on: pending while it is idle.
        self._next = sim.event()
        self._server = sim.process(self._serve(),
                                   name=f"directory:{self.name}")

    # -- local inspection (no network; used by the session and tests) -----------

    def begin_iteration(self, iteration: int, t_train: float) -> None:
        """Arm the gradient-registration cutoff for ``iteration``."""
        self._gradient_cutoff[iteration] = t_train

    def entry(self, address: Address) -> Optional[DirectoryEntry]:
        return self._entries.get(address)

    def entries_for(self, partition_id: int, iteration: int,
                    kind: str) -> List[DirectoryEntry]:
        bucket = self._by_key.get((partition_id, iteration, kind))
        return list(bucket.values()) if bucket else []

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
        return len(self._backlog) + len(self.endpoint.inbox.items)

    def accumulated_commitment(
        self, partition_id: int, iteration: int,
        aggregator_id: Optional[str] = None,
    ) -> Tuple[Optional[Commitment], int]:
        """(product, contributor count) for a partition or one aggregator."""
        accumulator = self._accumulators.get((partition_id, iteration))
        if accumulator is None:
            return None, 0
        if aggregator_id is None:
            return accumulator.total, accumulator.count
        return (accumulator.per_aggregator.get(aggregator_id),
                accumulator.per_aggregator_count.get(aggregator_id, 0))

    # -- server -------------------------------------------------------------------

    def _serve(self):
        """Serve requests one at a time, in arrival order."""
        while True:
            message = yield self._next
            bus = self.sim.bus
            if bus.wants(DirectoryRequest):
                bus.publish(DirectoryRequest(at=self.sim.now,
                                             kind=message.kind))
            if self.processing_delay > 0:
                # Serialized server work: requests queue behind it.
                yield self.sim.timeout(self.processing_delay)
            if message.kind == KIND_REGISTER:
                self._handle_register(message)
            elif message.kind == KIND_REGISTER_BATCH:
                self._handle_register_batch(message)
            elif message.kind == KIND_LOOKUP:
                self._handle_lookup(message)
            elif message.kind == KIND_ACCUMULATED:
                self._handle_accumulated(message)
            self._next = self.sim.event()
            if self._backlog:
                self.sim.dispatch_in_place(self._next,
                                           self._backlog.popleft())

    def _take(self, message: Message) -> bool:
        """The endpoint's server hook: resume the idle serve loop in
        place, or queue the request behind the busy one."""
        if message.kind not in _SERVED_KINDS:
            return False
        if self._next.triggered:
            self._backlog.append(message)
        else:
            self.sim.dispatch_in_place(self._next, message)
        return True

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
        existing = self._entries.get(address)
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


class DirectoryClient:
    """Participant-side access to the directory on its well-known host.

    With ``request_timeout`` unset every call waits indefinitely —
    correct on honest infrastructure, where the directory always
    answers.  Under fault injection, give the client a timeout plus a
    :class:`~repro.faults.RetryPolicy`: each request then retries with
    bounded backoff and raises :class:`~repro.faults.RetryExhaustedError`
    when the directory stays unreachable.  Server-side registration is
    idempotent, so a retried register whose first ack was lost is
    acknowledged harmlessly.
    """

    def __init__(self, name: str, transport: Transport,
                 retry: Optional[RetryPolicy] = None,
                 request_timeout: Optional[float] = None):
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        self.name = name
        self.endpoint = transport.endpoint(name)
        self.sim = transport.sim
        self.retry = retry
        self.request_timeout = request_timeout

    def _call(self, kind: str, operation: str, size: float, payload):
        """One request of message ``kind`` and wire ``size``;
        ``operation`` labels it for the retry policy.

        The retry loop lives inside this one generator (not a frame per
        attempt): a directory poll is the hottest path of a run, and
        every extra ``yield from`` level is resumed per event.
        """
        policy = self.retry
        attempts = policy.max_attempts if policy is not None else 1
        for attempt in range(attempts):
            # (No timeout waits forever: the directory answers.)
            response = yield self.endpoint.request(
                DIRECTORY_HOST, kind, payload, size, self.request_timeout)
            if response is not None:
                return response.payload
            if attempt + 1 < attempts:
                yield self.sim.timeout(policy.backoff(
                    attempt, key=f"{self.name}:{operation}"
                ))
        bus = self.sim.bus
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
            }))

    def register_batch(self, records):
        """Register many objects in one message (Sec. VI batching);
        returns the ack payload.

        ``records`` is a list of dicts with ``address``, ``cid`` and
        optional ``commitment``.  The message carries one accumulated
        digest over their CIDs, which the server recomputes and checks.
        """
        from .offload import accumulate_cids  # local import: avoid cycle

        return (yield from self._call(
            KIND_REGISTER_BATCH, "directory.register",
            REGISTER_SIZE + BATCH_RECORD_SIZE * max(0, len(records) - 1),
            {"records": records,
             "accumulation": accumulate_cids([r["cid"] for r in records])}))

    def lookup(self, partition_id: int, iteration: int, kind: str,
               aggregator_id: Optional[str] = None):
        """Query entries; returns a list of result dicts."""
        return (yield from self._call(
            KIND_LOOKUP, "directory.lookup", QUERY_SIZE, {
                "partition_id": partition_id,
                "iteration": iteration,
                "kind": kind,
                "aggregator_id": aggregator_id,
            }))

    def accumulated(self, partition_id: int, iteration: int,
                    aggregator_id: Optional[str] = None):
        """Fetch an accumulated commitment; returns (commitment, count)."""
        payload = yield from self._call(
            KIND_ACCUMULATED, "directory.accumulated", QUERY_SIZE, {
                "partition_id": partition_id,
                "iteration": iteration,
                "aggregator_id": aggregator_id,
            })
        return payload["commitment"], payload["count"]
