"""The event taxonomy: typed records of everything the system does.

Every event is a small frozen dataclass carrying the simulated time it
happened (``at``) plus the facts of the occurrence.  Producers construct
events *only when someone is subscribed* (guarded by
:meth:`~repro.obs.bus.EventBus.wants`), so an unobserved run pays a
single boolean check per emission site.

Two layers:

- **infrastructure events** describe the substrate — network transfers,
  IPFS block storage/retrieval, DHT lookups, directory requests.  They
  carry no iteration number because the substrate does not know about
  training rounds.
- **protocol events** describe Algorithm 1 — registrations, phase
  boundaries, verification outcomes.  They carry ``iteration`` so
  subscribers can attribute them to a training round.

Correlation keys: phase events additionally carry ``(iteration,
partition_id, <node>)`` plus a ``started_at`` timestamp where the phase
has a well-defined begin.  :mod:`repro.obs.spans` reconstructs a causal
span tree from these keys; producers stamp them for free (they are
plain attribute reads) inside the same :meth:`~repro.obs.bus.EventBus.
wants` guards, so the zero-subscriber overhead contract is unchanged.
Correlation fields default to ``None``/``-1`` so alternative producers
(the baselines) remain valid emitters without stamping them.

See ``docs/OBSERVABILITY.md`` for the full schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Event",
    # infrastructure
    "TransferStarted",
    "TransferCompleted",
    "BlockStored",
    "BlockFetched",
    "DhtLookup",
    "DirectoryRequest",
    # protocol
    "IterationStarted",
    "IterationFinished",
    "GradientRegistered",
    "PartialUpdateRegistered",
    "UpdateRegistered",
    "GradientsAggregated",
    "UploadCompleted",
    "BytesReceived",
    "SyncPhaseStarted",
    "SyncPhaseEnded",
    "CommitmentComputed",
    "CommitmentAccumulated",
    "UpdateVerified",
    "VerificationFailed",
    "TrainerCompleted",
    "TakeoverPerformed",
    "SnapshotSealed",
    "MergeServed",
    "BlockEvicted",
    "InvariantViolated",
    # faults & churn
    "FaultInjected",
    "FaultHealed",
    "TransferAborted",
    "NodeCrashed",
    "NodeRestarted",
    "RetryExhausted",
    "ParticipantDegraded",
    # learning & anomaly telemetry
    "TrainingEvaluated",
    "AnomalyDetected",
    "PROTOCOL_EVENTS",
]


class Event:
    """Marker base class for all observable events."""

    __slots__ = ()


# -- infrastructure events ---------------------------------------------------------


@dataclass(frozen=True)
class TransferStarted(Event):
    """Bytes began moving between two hosts."""

    at: float
    src: str
    dst: str
    size: float


@dataclass(frozen=True)
class TransferCompleted(Event):
    """The last byte of a transfer arrived."""

    at: float
    src: str
    dst: str
    size: float
    started_at: float


@dataclass(frozen=True)
class BlockStored(Event):
    """An IPFS node chunked and stored an object."""

    at: float
    node: str
    cid: str
    size: int


@dataclass(frozen=True)
class BlockFetched(Event):
    """A client successfully retrieved (and verified) content.

    ``started_at`` is when the client began the retrieval (provider
    resolution included), so ``at - started_at`` is the fetch latency;
    None when the producer does not track it.
    """

    at: float
    client: str
    node: str
    cid: str
    size: int
    started_at: Optional[float] = None


@dataclass(frozen=True)
class DhtLookup(Event):
    """One provider-record resolution.

    ``hops`` is the number of routing hops charged (always 0: the DHT
    is a flat provider table).
    ``started_at`` is when the resolution began, so ``at - started_at``
    is the lookup latency; None when the producer does not track it.
    """

    at: float
    querier: Optional[str]
    cid: str
    providers: int
    hops: int
    started_at: Optional[float] = None


@dataclass(frozen=True)
class DirectoryRequest(Event):
    """The directory service dequeued one request for processing."""

    at: float
    kind: str


@dataclass(frozen=True)
class MergeServed(Event):
    """A storage node pre-aggregated objects for a merge-and-download.

    ``cids`` are the consumed source objects (Sec. III-E: the client
    never fetches them individually, so this is the only record that
    those blocks were read).
    """

    at: float
    node: str
    cids: tuple
    size: int


@dataclass(frozen=True)
class BlockEvicted(Event):
    """Garbage collection removed an unpinned block from a blockstore."""

    at: float
    node: str
    cid: str
    size: int


@dataclass(frozen=True)
class TransferAborted(Event):
    """An in-flight (or refused) transfer failed before the last byte.

    Emitted when a link outage kills flows crossing it, or when a
    transfer is refused because an endpoint host is offline.  ``reason``
    says which.  The waiting sender/receiver sees a
    :class:`~repro.net.bandwidth.TransferAbortedError`.
    """

    at: float
    src: str
    dst: str
    size: float
    reason: str


@dataclass(frozen=True)
class NodeCrashed(Event):
    """An IPFS storage node's process died.

    ``lost_blocks`` is the number of blocks wiped from its store
    (0 when the disk survives the crash).
    """

    at: float
    node: str
    lost_blocks: int


@dataclass(frozen=True)
class NodeRestarted(Event):
    """A crashed IPFS node came back.

    ``reprovided`` counts the surviving objects whose provider records
    were re-published to the DHT.
    """

    at: float
    node: str
    reprovided: int


@dataclass(frozen=True)
class FaultInjected(Event):
    """The fault injector applied one :class:`~repro.faults.FaultSpec`.

    ``spec_index`` is the spec's position in its plan, so the matching
    :class:`FaultHealed` can be correlated.
    """

    at: float
    kind: str
    target: str
    spec_index: int


@dataclass(frozen=True)
class FaultHealed(Event):
    """A fault window ended and the injector restored the target."""

    at: float
    kind: str
    target: str
    spec_index: int


# -- protocol events ---------------------------------------------------------------


@dataclass(frozen=True)
class IterationStarted(Event):
    """A training round began.

    ``t_train``/``t_sync`` are the round's absolute deadlines (Algorithm
    1's schedule), stamped so timeline subscribers can draw them without
    access to the session's config.
    """

    at: float
    iteration: int
    t_train: Optional[float] = None
    t_sync: Optional[float] = None


@dataclass(frozen=True)
class IterationFinished(Event):
    """All of a round's participant processes have ended."""

    at: float
    iteration: int


@dataclass(frozen=True)
class GradientRegistered(Event):
    """A gradient record was accepted (before the cutoff).

    ``cid`` is the registered content identifier (stringified), stamped
    so forensics can name the exact blob a misbehaving aggregator
    dropped; None when the producer does not stamp it.
    """

    at: float
    iteration: int
    uploader: str
    partition_id: int
    cid: Optional[str] = None


@dataclass(frozen=True)
class PartialUpdateRegistered(Event):
    """An aggregator announced its partial update (|A_i| > 1 sync)."""

    at: float
    iteration: int
    aggregator: str
    partition_id: int


@dataclass(frozen=True)
class UpdateRegistered(Event):
    """A globally updated partition's registration was acknowledged.

    ``started_at`` is when the aggregator began publishing the global
    update (summing contributions, uploading, registering).
    """

    at: float
    iteration: int
    aggregator: str
    partition_id: int
    started_at: Optional[float] = None


@dataclass(frozen=True)
class GradientsAggregated(Event):
    """An aggregator finished collecting its trainers' gradients.

    ``started_at`` is when the aggregator began the collection phase;
    ``partition_id`` correlates the phase with registrations.
    """

    at: float
    iteration: int
    aggregator: str
    partition_id: int = -1
    started_at: Optional[float] = None


@dataclass(frozen=True)
class UploadCompleted(Event):
    """A trainer finished uploading all partitions before the deadline.

    ``delay`` is the paper's upload delay: mean seconds from gradient
    put to store acknowledgment over the trainer's partitions.
    ``started_at`` is when the upload wave began (first partition put).
    """

    at: float
    iteration: int
    trainer: str
    delay: float
    started_at: Optional[float] = None


@dataclass(frozen=True)
class BytesReceived(Event):
    """A participant's download volume for the round (additive)."""

    at: float
    iteration: int
    participant: str
    amount: float


@dataclass(frozen=True)
class SyncPhaseStarted(Event):
    """An aggregator entered the partial-update exchange."""

    at: float
    iteration: int
    aggregator: str
    partition_id: int = -1


@dataclass(frozen=True)
class SyncPhaseEnded(Event):
    """An aggregator left the partial-update exchange."""

    at: float
    iteration: int
    aggregator: str
    duration: float
    partition_id: int = -1


@dataclass(frozen=True)
class CommitmentComputed(Event):
    """A participant committed to one partition: ``seconds`` is the
    simulated time the commitment cost model charges for it (0.0 when
    the session models none), additive per participant."""

    at: float
    iteration: int
    participant: str
    seconds: float


@dataclass(frozen=True)
class CommitmentAccumulated(Event):
    """The directory folded a gradient commitment into its accumulator.

    ``commitment`` is the contribution just folded in; ``accumulated``
    and ``count`` are the partition's running product and contributor
    count *after* folding.  ``aggregator`` is the aggregator assigned to
    the uploading trainer (None when the assignment is unknown).  The
    values are :class:`~repro.crypto.Commitment` instances — monitors
    recompute the product independently and compare.
    """

    at: float
    iteration: int
    partition_id: int
    uploader: str
    aggregator: Optional[str]
    commitment: object
    accumulated: object
    count: int


@dataclass(frozen=True)
class UpdateVerified(Event):
    """The directory checked a claimed global update's commitment.

    Emitted for *both* outcomes (``ok``); a failing check is followed by
    a :class:`VerificationFailed`.  ``expected_count`` is the number of
    accumulated gradient contributions, ``claimed_counter`` the
    averaging counter decoded from the claimed blob — a mismatch
    between the two is the dropped/lazy signature.  The commitment
    fields carry :class:`~repro.crypto.Commitment` values for forensic
    cross-checking (e.g. against the previous round's accumulator, the
    replay signature).
    """

    at: float
    iteration: int
    partition_id: int
    aggregator: str
    ok: bool
    expected_count: int
    claimed_counter: float
    expected_commitment: Optional[object] = None
    claimed_commitment: Optional[object] = None
    cid: Optional[str] = None


@dataclass(frozen=True)
class VerificationFailed(Event):
    """A commitment check failed somewhere in the protocol.

    ``scope`` names the checkpoint: ``"update"`` (directory-side global
    update check), ``"partial_update"`` (aggregator-side peer partial
    check) or ``"trainer"`` (trainer-side delegated check).
    ``partition_id``/``aggregator``/``reason`` localize the failure
    (the accused party is the update's uploader for ``"update"``, the
    silent/faulty peer for ``"partial_update"``; None when unknown).
    """

    at: float
    iteration: int
    label: str
    scope: str
    partition_id: int = -1
    aggregator: Optional[str] = None
    reason: str = ""


@dataclass(frozen=True)
class TrainerCompleted(Event):
    """A trainer installed the round's global update."""

    at: float
    iteration: int
    trainer: str


@dataclass(frozen=True)
class TakeoverPerformed(Event):
    """An aggregator covered a silent peer's trainer set."""

    at: float
    iteration: int
    aggregator: str
    peer: str


@dataclass(frozen=True)
class RetryExhausted(Event):
    """An actor gave up on an operation after its retry budget ran out.

    ``operation`` is the logical name (``directory.lookup``,
    ``ipfs.get``, ...); the actor raises
    :class:`~repro.faults.RetryExhaustedError` right after emitting
    this.
    """

    at: float
    actor: str
    operation: str
    attempts: int


@dataclass(frozen=True)
class ParticipantDegraded(Event):
    """A participant lost (part of) a round to a fault.

    ``role`` is ``"trainer"`` or ``"aggregator"``; ``reason`` is a
    human-readable cause (crash interrupt, retry exhaustion, offline
    fault window, missed deadline).  This is what per-iteration
    ``degraded`` telemetry accounting is built from.
    """

    at: float
    iteration: int
    participant: str
    role: str
    reason: str


@dataclass(frozen=True)
class SnapshotSealed(Event):
    """The directory sealed a completed partition map onto IPFS
    (Sec. VI map-snapshot offload)."""

    at: float
    iteration: int
    partition_id: int
    node: str
    cid: str


@dataclass(frozen=True)
class InvariantViolated(Event):
    """An online invariant monitor caught a protocol-level inconsistency.

    Published by :class:`~repro.obs.monitors.InvariantMonitors` (never by
    producers), so counters/metrics/forensics pick violations up like any
    other event.  ``invariant`` is the catalog name (see
    ``docs/OBSERVABILITY.md``), ``subject`` the offending node/object and
    ``detail`` a human-readable explanation.  ``iteration`` is -1 when
    the violation is not attributable to a round (e.g. end-of-session
    leak checks).
    """

    at: float
    iteration: int
    invariant: str
    subject: str
    detail: str


@dataclass(frozen=True)
class TrainingEvaluated(Event):
    """A trainer evaluated its model on its local shard for one round.

    Emitted from the ML layer (behind the usual ``bus.wants()`` guard,
    so unobserved runs never pay the evaluation) right after local
    training: ``loss`` is the model's loss on the trainer's shard,
    ``accuracy`` the classification accuracy when the model is a
    classifier (``None`` otherwise), ``samples`` the shard size.  The
    convergence detectors (:mod:`repro.obs.anomaly`) fold these into a
    per-iteration trajectory; evaluation is pure computation — no RNG,
    no simulated-clock interaction — so emitting it never perturbs a
    seeded replay.
    """

    at: float
    iteration: int
    trainer: str
    loss: float
    accuracy: Optional[float] = None
    samples: int = 0


@dataclass(frozen=True)
class AnomalyDetected(Event):
    """An online anomaly detector classified a degradation.

    Published by :class:`~repro.obs.anomaly.AnomalyWatchdog` (never by
    producers), so counters, traces and the forensics flight recorder
    pick anomalies up like any other event — the recorder treats this as
    a seal trigger.  ``kind`` is the catalog name (``retry_storm``,
    ``throughput_collapse``, ``queue_runaway``, ``sim_stall``,
    ``divergence``, ``convergence_stall`` — see
    ``docs/OBSERVABILITY.md``), ``severity`` is ``"warning"`` or
    ``"critical"``, ``detector`` the detector class that fired, and
    ``window`` the trailing detection window in simulated seconds (0
    when the detector is not window-based).  ``evidence`` is a
    canonically ordered tuple of ``(key, value)`` pairs — kept as pairs
    (not a dict) so the event stays hashable and serializes with a
    stable field order; :meth:`evidence_dict` gives the mapping view.
    ``iteration`` is the round open when the watchdog published it, -1
    between rounds.
    """

    at: float
    iteration: int
    kind: str
    severity: str
    detector: str
    window: float = 0.0
    evidence: tuple = ()

    def evidence_dict(self) -> dict:
        """The evidence pairs as a mapping."""
        return dict(self.evidence)


#: The iteration-scoped events :class:`~repro.obs.telemetry
#: .TelemetryCollector` consumes to rebuild the paper's metrics.
PROTOCOL_EVENTS = (
    IterationStarted,
    IterationFinished,
    GradientRegistered,
    UpdateRegistered,
    GradientsAggregated,
    UploadCompleted,
    BytesReceived,
    SyncPhaseEnded,
    CommitmentComputed,
    VerificationFailed,
    TrainerCompleted,
    TakeoverPerformed,
    ParticipantDegraded,
)
