"""The event taxonomy: typed records of everything the system does.

Every event is a small :class:`~typing.NamedTuple` carrying the
simulated time it happened (``at``) plus the facts of the occurrence:
immutable, hashable and without a per-instance ``__dict__``.  One
generated ``__new__`` per type keeps both class creation (paid by every
``import repro``) and construction cheap.  Being tuples, two events of
different types with equal values compare (and hash) equal —
``BlockStored`` and ``BlockEvicted`` share a field list — so consumers
key and dispatch on ``type(event)``, never on the event's value.
:data:`EVENT_TYPES` lists every type.

Producers construct events *only when someone is subscribed* (guarded
by :meth:`~repro.obs.bus.EventBus.wants`), so an unobserved run pays a
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

from typing import NamedTuple, Optional, Tuple


# -- infrastructure events ---------------------------------------------------------


class TransferStarted(NamedTuple):
    """Bytes began moving between two hosts."""

    at: float
    src: str
    dst: str
    size: float


class TransferCompleted(NamedTuple):
    """The last byte of a transfer arrived."""

    at: float
    src: str
    dst: str
    size: float
    started_at: float


class BlockStored(NamedTuple):
    """An IPFS node chunked and stored an object."""

    at: float
    node: str
    cid: str
    size: int


class BlockFetched(NamedTuple):
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


class DhtLookup(NamedTuple):
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


class DirectoryRequest(NamedTuple):
    """The directory service dequeued one request for processing."""

    at: float
    kind: str


class MergeServed(NamedTuple):
    """A storage node pre-aggregated objects for a merge-and-download.

    ``cids`` are the consumed source objects (Sec. III-E: the client
    never fetches them individually, so this is the only record that
    those blocks were read).
    """

    at: float
    node: str
    cids: tuple
    size: int


class BlockEvicted(NamedTuple):
    """Garbage collection removed an unpinned block from a blockstore."""

    at: float
    node: str
    cid: str
    size: int


class TransferAborted(NamedTuple):
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


class FaultInjected(NamedTuple):
    """The fault injector applied one :class:`~repro.faults.plan.FaultSpec`.

    ``spec_index`` is the spec's position in its plan, so the matching
    :class:`FaultHealed` can be correlated.
    """

    at: float
    kind: str
    target: str
    spec_index: int


class FaultHealed(NamedTuple):
    """A fault window ended and the injector restored the target."""

    at: float
    kind: str
    target: str
    spec_index: int


# -- protocol events ---------------------------------------------------------------


class IterationStarted(NamedTuple):
    """A training round began.

    ``t_train``/``t_sync`` are the round's absolute deadlines (Algorithm
    1's schedule), stamped so timeline subscribers can draw them without
    access to the session's config.
    """

    at: float
    iteration: int
    t_train: Optional[float] = None
    t_sync: Optional[float] = None


class IterationFinished(NamedTuple):
    """All of a round's participant processes have ended."""

    at: float
    iteration: int


class GradientRegistered(NamedTuple):
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


class PartialUpdateRegistered(NamedTuple):
    """An aggregator announced its partial update (|A_i| > 1 sync)."""

    at: float
    iteration: int
    aggregator: str
    partition_id: int


class UpdateRegistered(NamedTuple):
    """A globally updated partition's registration was acknowledged.

    ``started_at`` is when the aggregator began publishing the global
    update (summing contributions, uploading, registering).
    """

    at: float
    iteration: int
    aggregator: str
    partition_id: int
    started_at: Optional[float] = None


class GradientsAggregated(NamedTuple):
    """An aggregator finished collecting its trainers' gradients.

    ``started_at`` is when the aggregator began the collection phase;
    ``partition_id`` correlates the phase with registrations.
    """

    at: float
    iteration: int
    aggregator: str
    partition_id: int = -1
    started_at: Optional[float] = None


class UploadCompleted(NamedTuple):
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


class BytesReceived(NamedTuple):
    """A participant's download volume for the round (additive)."""

    at: float
    iteration: int
    participant: str
    amount: float


class SyncPhaseStarted(NamedTuple):
    """An aggregator entered the partial-update exchange."""

    at: float
    iteration: int
    aggregator: str
    partition_id: int = -1


class SyncPhaseEnded(NamedTuple):
    """An aggregator left the partial-update exchange."""

    at: float
    iteration: int
    aggregator: str
    duration: float
    partition_id: int = -1


class CommitmentComputed(NamedTuple):
    """A participant committed to one partition: ``seconds`` is the
    simulated time the commitment cost model charges for it (0.0 when
    the session models none), additive per participant."""

    at: float
    iteration: int
    participant: str
    seconds: float


class CommitmentAccumulated(NamedTuple):
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


class UpdateVerified(NamedTuple):
    """The directory checked a claimed global update's commitment.

    Emitted for *both* outcomes (``ok``); a failing check is followed by
    a :class:`VerificationFailed`.  ``expected_count`` is the number of
    accumulated gradient contributions, ``claimed_counter`` the
    averaging counter decoded from the claimed blob — a mismatch
    between the two is the dropped/lazy signature.  The commitment
    fields carry :class:`~repro.crypto.Commitment` values; the invariant
    monitors check ``expected_commitment`` against a product they
    recompute themselves.
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


class VerificationFailed(NamedTuple):
    """A commitment check failed somewhere in the protocol.

    ``scope`` names the checkpoint: ``"update"`` (directory-side global
    update check), ``"partial_update"`` (aggregator-side peer partial
    check) or ``"trainer"`` (trainer-side delegated check).
    ``partition_id``/``aggregator``/``reason`` localize the failure
    (the accused party is the update's uploader for ``"update"``, the
    silent/faulty peer for ``"partial_update"``; None when unknown).

    The rest is the verifier's blame, as the directory classifies a
    rejected update (:func:`~repro.core.verification.classify_rejection`):
    ``classification`` is ``"dropped"``, ``"altered"``, ``"replayed"``,
    ``"lazy"`` or ``"unknown"``; ``dropped_trainers`` (with their
    partition CIDs, aligned, in ``dropped_cids``) are the trainers the
    aggregate provably omitted and ``kept_trainers`` those it includes;
    ``expected_count`` is the contributions the directory accumulated
    and ``claimed_counter`` the averaging counter the aggregate opened
    to.  The other scopes leave them at their defaults.
    """

    at: float
    iteration: int
    label: str
    scope: str
    partition_id: int = -1
    aggregator: Optional[str] = None
    reason: str = ""
    classification: str = "unknown"
    dropped_trainers: Tuple[str, ...] = ()
    kept_trainers: Tuple[str, ...] = ()
    dropped_cids: Tuple[str, ...] = ()
    expected_count: int = 0
    claimed_counter: float = 0.0
    detail: str = ""


class TrainerCompleted(NamedTuple):
    """A trainer installed the round's global update."""

    at: float
    iteration: int
    trainer: str


class TakeoverPerformed(NamedTuple):
    """An aggregator covered a silent peer's trainer set."""

    at: float
    iteration: int
    aggregator: str
    peer: str


class RetryExhausted(NamedTuple):
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


class ParticipantDegraded(NamedTuple):
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


class SnapshotSealed(NamedTuple):
    """The directory sealed a completed partition map onto IPFS
    (Sec. VI map-snapshot offload)."""

    at: float
    iteration: int
    partition_id: int
    node: str
    cid: str


class InvariantViolated(NamedTuple):
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


class TrainingEvaluated(NamedTuple):
    """A trainer evaluated its model on its local shard for one round.

    Emitted from the ML layer (behind the usual ``bus.wants()`` guard,
    so unobserved runs never pay the evaluation) right after local
    training: ``loss`` is the model's loss on the trainer's shard,
    ``accuracy`` the classification accuracy when the model is a
    classifier (``None`` otherwise), ``samples`` the shard size.
    :class:`~repro.obs.counters.CountersRegistry` folds these into
    ``ml.evaluations`` and the ``ml.*.last`` gauges.  Evaluation is pure
    computation — no RNG, no simulated-clock interaction — so emitting
    it never perturbs a seeded replay.
    """

    at: float
    iteration: int
    trainer: str
    loss: float
    accuracy: Optional[float] = None
    samples: int = 0


class AnomalyDetected(NamedTuple):
    """An online anomaly detector classified a degradation.

    Published by :class:`~repro.obs.anomaly.AnomalyWatchdog` (never by
    producers), so counters, traces and the forensics flight recorder
    pick anomalies up like any other event — the recorder treats this as
    a seal trigger.  ``kind`` is the catalog name (``retry_storm`` or
    ``throughput_collapse`` — see ``docs/OBSERVABILITY.md``),
    ``severity`` is ``"warning"`` or
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

#: Every event type, in declaration order.
EVENT_TYPES = (
    TransferStarted,
    TransferCompleted,
    BlockStored,
    BlockFetched,
    DhtLookup,
    DirectoryRequest,
    MergeServed,
    BlockEvicted,
    TransferAborted,
    FaultInjected,
    FaultHealed,
    IterationStarted,
    IterationFinished,
    GradientRegistered,
    PartialUpdateRegistered,
    UpdateRegistered,
    GradientsAggregated,
    UploadCompleted,
    BytesReceived,
    SyncPhaseStarted,
    SyncPhaseEnded,
    CommitmentComputed,
    CommitmentAccumulated,
    UpdateVerified,
    VerificationFailed,
    TrainerCompleted,
    TakeoverPerformed,
    RetryExhausted,
    ParticipantDegraded,
    SnapshotSealed,
    InvariantViolated,
    TrainingEvaluated,
    AnomalyDetected,
)
