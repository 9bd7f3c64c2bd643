"""The directory service (Sec. III-C, extended with Sec. IV verification).

The paper's directory maps addressing tuples to IPFS CIDs and keeps, per
partition, the product of the trainers' Pedersen gradient commitments
(and per aggregator's trainer subset); in verifiable mode it checks
every claimed global update against that product before revealing it to
trainers.  Run by the trusted bootstrapper: "the directory service
receives orders of magnitude fewer data per iteration than the
aggregators combined do".

- :class:`DirectoryState` holds the rules: entries, accumulated
  commitments, cutoffs and rejections.  It has no simulator, wire or
  clock: each verb takes ``now`` where a cutoff or an event needs it and
  returns the reply payload.  It is also the commitment ledger blame is
  read from: a rejected update's
  :class:`~repro.obs.events.VerificationFailed` carries the
  classification :func:`~repro.core.verification.classify_rejection`
  derives from the partition's gradient entries and products.
- :class:`DirectoryService` is the serve loop on the well-known
  ``"directory"`` host: it takes requests off the wire one at a time,
  hands each to its ``state`` and sends the reply.  For an update the
  state must judge, it fetches the blob and hands the state the
  commitment the blob opens to.
- :class:`DirectoryClient` is what every participant holds: one
  request per verb to that host, retried with bounded backoff under a
  :class:`~repro.faults.RetryPolicy`.
- :class:`DirectoryProfile` is the session's directory profile: the
  server's serialized ``processing_delay`` per request.

The register rules:

- An address keeps the CID it was first registered with.  The same CID
  again is a retry whose ack was lost: it is acknowledged and folds
  nothing in again.  A different CID is refused (``"conflicting
  cid"``): its commitment would enter the product while the lookup
  served only one of the two.
- A gradient that arrives after its iteration's cutoff (t_train) is
  refused (``"past t_train"``).
- A global update: the first entry not rejected wins.  Its own uploader
  re-announcing it is a retry; any other is refused (``"duplicate"``).
- A batch carries gradients only.  A batch with any other record is
  refused (``"gradients only"``), as is one whose CID accumulation does
  not match (``"bad accumulation"``); otherwise each record follows the
  rules above and the batch is accepted only if every record is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..crypto import Commitment
from ..faults.retry import RetryExhaustedError, RetryPolicy
from ..ipfs import CID, DHT, IPFSClient
from ..net import Message, Transport
from ..obs.bus import EventBus
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
from .verification import PartitionCommitter, classify_rejection

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
    #: Updates only: None = pending verification, True/False = outcome.
    verified: Optional[bool] = None


@dataclass
class RejectionRecord:
    """A registered update that failed commitment verification."""

    address: Address
    reason: str


class DirectoryState:
    """The directory's rules (the module docstring lists them), with no
    simulator, wire or clock.

    Entries live per ``(partition, iteration, kind)`` key, address ->
    entry, in first-registration order, and again per iteration for
    garbage collection.  One ``(partition, iteration, scope)`` map holds
    the product and count of the gradient commitments accumulated for a
    partition (scope ``None``) and for each aggregator's trainer subset
    (scope = the aggregator, Sec. IV-B).  Events go to ``bus`` at the
    ``now`` the verb was given.
    """

    def __init__(self, bus: EventBus,
                 committers: Dict[int, PartitionCommitter],
                 trainer_assignment: Dict[Tuple[str, int], str],
                 verifiable: bool):
        """``committers`` maps partition -> :class:`PartitionCommitter`
        (the products' curve); ``trainer_assignment`` maps
        ``(trainer_id, partition_id) -> aggregator_id`` (the
        per-aggregator products and the lookup's filter).  When
        ``verifiable``, a global update is served only once
        :meth:`verdict` accepts it."""
        if verifiable and not committers:
            raise ValueError("verifiable mode needs partition committers")
        self.bus = bus
        self.committers = committers
        self.trainer_assignment = trainer_assignment
        self.verifiable = verifiable
        self._by_key: Dict[Tuple[int, int, str],
                           Dict[Address, DirectoryEntry]] = {}
        self._by_iteration: Dict[int, Dict[Address, DirectoryEntry]] = {}
        self._products: Dict[Tuple[int, int, Optional[str]],
                             Tuple[Commitment, int]] = {}
        #: iteration -> gradient-registration cutoff (the schedule's
        #: t_train).  Closes the race between a late-straddling upload
        #: and the aggregators' final post-deadline poll: a gradient
        #: commitment must never enter the accumulated product unless the
        #: aggregators can still see it.
        self._gradient_cutoff: Dict[int, float] = {}
        #: Updates accepted in verifiable mode and not yet handed out for
        #: fetching, oldest first: whoever serves the state fetches each
        #: one and calls :meth:`verdict`.
        self.to_verify: Deque[DirectoryEntry] = deque()
        #: Updates that failed verification.
        self.rejections: List[RejectionRecord] = []

    # -- the verbs ------------------------------------------------------------

    def register(self, address: Address, cid: CID,
                 commitment: Optional[Commitment], now: float) -> dict:
        """Register one object; the ack payload."""
        if address.kind == UPDATE:
            reason = self._update(address, cid, commitment)
        else:
            reason = self._record(address, cid, commitment, now)
        if reason is None:
            return {"accepted": True}
        return {"accepted": False, "reason": reason}

    def register_batch(self, records: List[dict], accumulation: bytes,
                       now: float) -> dict:
        """Register a trainer's gradient partitions at once (Sec. VI
        batching), integrity-bound by ``accumulation`` over their CIDs;
        the ack payload."""
        from .offload import accumulate_cids  # local import: avoid cycle

        if accumulate_cids([record["cid"] for record in records]) \
                != accumulation:
            return {"accepted": False, "reason": "bad accumulation"}
        if any(record["address"].kind != GRADIENT for record in records):
            return {"accepted": False, "reason": "gradients only"}
        accepted = True
        for record in records:
            accepted &= self._record(record["address"], record["cid"],
                                     record.get("commitment"), now) is None
        return {"accepted": accepted}

    def lookup(self, partition_id: int, iteration: int, kind: str,
               aggregator_id: Optional[str]) -> List[dict]:
        """One key's visible entries as reply rows, in registration
        order.  An update is visible once it is verified; with
        ``aggregator_id``, gradients are only those of its trainers."""
        bucket = self._by_key.get((partition_id, iteration, kind))
        if not bucket:
            return []
        entries = bucket.values()
        if kind == UPDATE:
            entries = [entry for entry in entries if entry.verified is True]
        elif kind == GRADIENT and aggregator_id is not None:
            assigned = self.trainer_assignment.get
            entries = [
                entry for entry in entries
                if assigned((entry.address.uploader_id, partition_id))
                == aggregator_id
            ]
        return [{"uploader_id": entry.address.uploader_id,
                 "cid": entry.cid, "commitment": entry.commitment}
                for entry in entries]

    def accumulated(self, partition_id: int, iteration: int,
                    aggregator_id: Optional[str]) -> dict:
        """The product and contributor count of the gradient commitments
        of a partition (``aggregator_id`` None) or of one aggregator's
        trainers."""
        product, count = self._products.get(
            (partition_id, iteration, aggregator_id), (None, 0))
        return {"commitment": product, "count": count}

    def verdict(self, address: Address, claimed: Optional[Commitment],
                claimed_counter: float, now: float) -> None:
        """Judge the pending update at ``address`` by the commitment its
        blob opened to (``claimed``, summing ``claimed_counter``
        gradients): served if that is the partition's accumulated
        product, rejected if not or if nothing was accumulated."""
        entry = self._by_key[
            (address.partition_id, address.iteration, UPDATE)][address]
        expected, count = self._products.get(
            (address.partition_id, address.iteration, None), (None, 0))
        if not count:
            self.reject(address, "no gradient commitments accumulated", now)
            return
        ok = claimed == expected
        bus = self.bus
        if bus.wants(UpdateVerified):
            bus.publish(UpdateVerified(
                at=now, iteration=address.iteration,
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
            self.reject(
                address, "commitment mismatch (dropped or altered gradients)",
                now, claimed, claimed_counter)

    def reject(self, address: Address, reason: str, now: float,
               claimed: Optional[Commitment] = None,
               claimed_counter: float = 0.0) -> None:
        """Reject the pending update at ``address``: it is never served.
        ``claimed`` is the commitment it opened to, summing
        ``claimed_counter`` gradients (None when it never opened); the
        :class:`VerificationFailed` carries the blame
        :func:`classify_rejection` reads off the partition's gradient
        entries and the previous iteration's product."""
        partition, iteration = address.partition_id, address.iteration
        self._by_key[(partition, iteration, UPDATE)][
            address].verified = False
        self.rejections.append(RejectionRecord(address=address,
                                               reason=reason))
        bus = self.bus
        if bus.wants(VerificationFailed):
            contributions = sorted(
                ((entry.address.uploader_id, entry.commitment,
                  str(entry.cid))
                 for entry in self.entries_for(partition, iteration,
                                               GRADIENT)
                 if entry.commitment is not None),
                key=lambda contribution: contribution[0])
            bus.publish(VerificationFailed(
                at=now, iteration=iteration,
                label=str(address), scope="update",
                partition_id=partition,
                aggregator=address.uploader_id,
                reason=reason,
                **classify_rejection(
                    iteration, reason, contributions,
                    self._products.get((partition, iteration - 1, None)),
                    claimed, claimed_counter),
            ))

    # -- local inspection (no wire; the session and tests) --------------------

    def begin_iteration(self, iteration: int, t_train: float) -> None:
        """Arm the gradient-registration cutoff for ``iteration``."""
        self._gradient_cutoff[iteration] = t_train

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

    # -- the rules ------------------------------------------------------------

    def _record(self, address: Address, cid: CID,
                commitment: Optional[Commitment],
                now: float) -> Optional[str]:
        """Record a gradient or a partial update; why it is refused, or
        None."""
        bucket = self._by_key.get(
            (address.partition_id, address.iteration, address.kind))
        existing = bucket.get(address) if bucket else None
        if existing is not None:
            # A retry folds nothing in again: a commitment accumulated
            # twice would poison verification.
            return None if existing.cid == cid else "conflicting cid"
        cutoff = self._gradient_cutoff.get(address.iteration)
        if address.kind == GRADIENT and cutoff is not None and now > cutoff:
            return "past t_train"
        self._store(DirectoryEntry(address, cid, commitment))
        if address.kind == PARTIAL_UPDATE:
            return None
        bus = self.bus
        if bus.wants(GradientRegistered):
            bus.publish(GradientRegistered(
                at=now, iteration=address.iteration,
                uploader=address.uploader_id,
                partition_id=address.partition_id,
                cid=str(cid),
            ))
        if commitment is None:
            return None
        partition, iteration = address.partition_id, address.iteration
        total, count = self._fold((partition, iteration, None), commitment)
        aggregator_id = self.trainer_assignment.get(
            (address.uploader_id, partition))
        if bus.wants(CommitmentAccumulated):
            bus.publish(CommitmentAccumulated(
                at=now, iteration=iteration, partition_id=partition,
                uploader=address.uploader_id, aggregator=aggregator_id,
                commitment=commitment, accumulated=total, count=count,
            ))
        if aggregator_id is not None:
            self._fold((partition, iteration, aggregator_id), commitment)
        return None

    def _update(self, address: Address, cid: CID,
                commitment: Optional[Commitment]) -> Optional[str]:
        """Record a global update; why it is refused, or None."""
        bucket = self._by_key.get(
            (address.partition_id, address.iteration, UPDATE))
        kept = [entry for entry in bucket.values()
                if entry.verified is not False] if bucket else []
        if kept:
            # Its uploader re-announcing the kept entry is a retry (lost
            # ack), not a losing race.
            if any(entry.address == address and entry.cid == cid
                   for entry in kept):
                return None
            return "duplicate"
        entry = DirectoryEntry(address, cid, commitment,
                               verified=None if self.verifiable else True)
        self._store(entry)
        if self.verifiable:
            self.to_verify.append(entry)
        return None

    def _store(self, entry: DirectoryEntry) -> None:
        """Record ``entry`` under its address in both indexes (a rejected
        update's successor at its address keeps its slot)."""
        address = entry.address
        key = (address.partition_id, address.iteration, address.kind)
        self._by_key.setdefault(key, {})[address] = entry
        self._by_iteration.setdefault(address.iteration, {})[address] = entry

    def _fold(self, key: Tuple[int, int, Optional[str]],
              commitment: Commitment) -> Tuple[Commitment, int]:
        """Fold ``commitment`` into the product at ``key``; the new
        (product, count)."""
        product, count = self._products.get(key, (None, 0))
        if product is None:
            product = Commitment.identity(self.committers[key[0]].curve)
        folded = self._products[key] = (product.combine(commitment),
                                        count + 1)
        return folded


class DirectoryService:
    """The bootstrapper-run directory server: the serve loop around one
    :class:`DirectoryState` (``state``), which sessions and tests read
    directly."""

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
        """``committers``, ``trainer_assignment`` and ``verifiable`` are
        the :class:`DirectoryState`'s.  ``processing_delay`` is the
        simulated seconds of serialized server work per request (the
        Sec. VI load concern): requests queue behind it."""
        if processing_delay < 0:
            raise ValueError("processing_delay must be non-negative")
        self.state = DirectoryState(sim.bus, committers or {},
                                    trainer_assignment or {}, verifiable)
        self.sim = sim
        self.name = DIRECTORY_HOST
        self.processing_delay = processing_delay
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
        sim.process(self._serve(), name=f"directory:{self.name}")

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

    def _serve(self):
        """Serve requests one at a time, in arrival order: one state verb
        and one reply each."""
        sim, state = self.sim, self.state
        while True:
            message = yield self._next
            bus = sim.bus
            if bus.wants(DirectoryRequest):
                bus.publish(DirectoryRequest(at=sim.now, kind=message.kind))
            if self.processing_delay > 0:
                # Serialized server work: requests queue behind it.
                yield sim.timeout(self.processing_delay)
            kind, query = message.kind, message.payload
            if kind == KIND_LOOKUP:
                self.lookup_count += 1
                reply = state.lookup(query["partition_id"],
                                     query["iteration"], query["kind"],
                                     query.get("aggregator_id"))
                reply_kind = KIND_LOOKUP_REPLY
                size = ENTRY_WIRE_SIZE * max(1, len(reply))
            elif kind == KIND_ACCUMULATED:
                reply = state.accumulated(query["partition_id"],
                                          query["iteration"],
                                          query.get("aggregator_id"))
                reply_kind, size = KIND_ACCUMULATED_REPLY, ENTRY_WIRE_SIZE
            else:
                self.register_count += 1
                if kind == KIND_REGISTER:
                    reply = state.register(query["address"], query["cid"],
                                           query.get("commitment"), sim.now)
                else:
                    reply = state.register_batch(
                        query["records"], query["accumulation"], sim.now)
                reply_kind, size = KIND_REGISTER_ACK, ENTRY_WIRE_SIZE
            self.endpoint.respond(message, reply_kind, payload=reply,
                                  size=size)
            # Only an update the state must judge takes simulated time
            # (its fetch), so only it runs as a process.
            while state.to_verify:
                sim.process(self._verify(state.to_verify.popleft()),
                            name="directory:verify")
            self._next = sim.event()
            if self._backlog:
                sim.dispatch_in_place(self._next, self._backlog.popleft())

    def _verify(self, entry: DirectoryEntry):
        """Fetch an accepted update and hand the state the commitment it
        opens to (nothing is fetched when nothing was accumulated)."""
        state, address = self.state, entry.address
        claimed, claimed_counter = None, 0
        if state.accumulated(address.partition_id, address.iteration,
                             None)["count"]:
            try:
                blob = yield from self._ipfs.get(entry.cid)
            except Exception as exc:  # unavailable/corrupt update
                state.reject(address, f"update retrieval failed: {exc}",
                             self.sim.now)
                return
            claimed, claimed_counter = state.committers[
                address.partition_id].open_blob(blob)
        state.verdict(address, claimed, claimed_counter, self.sim.now)


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
