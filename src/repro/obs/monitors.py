"""Online invariant monitors: correctness checks as a bus subscriber.

The event stream is rich enough to *re-derive* what the protocol claims
to have done and cross-check it against what the substrate reports.
:class:`InvariantMonitors` subscribes to the protocol-relevant event
types (not the per-chunk transfer firehose, which it has no invariant
for — keeping the audited hot path within the metrics overhead budget)
and enforces, while the run is still going:

- **clock-monotonic** — monitored events are published in
  non-decreasing simulated time (the bus has no buffering; out-of-order
  timestamps mean a producer stamped the wrong clock).
- **iteration-monotonic** — :class:`~repro.obs.events.IterationStarted`
  numbers strictly increase, and no participant emits an event for an
  iteration older than the last one it was seen in.
- **protocol-ordering** — Algorithm 1's causal order per iteration:
  a trainer's gradients register before its upload completes, an
  aggregator aggregates before it registers an update, sync-phase
  events nest inside a started sync phase, a trainer completes only
  after it uploaded.
- **byte-conservation** — the per-round download volume a participant
  reports (:class:`~repro.obs.events.BytesReceived`) must equal the sum
  of its :class:`~repro.obs.events.BlockFetched` sizes for that round.
- **commitment-consistency** — the directory's accumulated commitment
  (:class:`~repro.obs.events.CommitmentAccumulated`) must equal the
  product of the individual contributions, recomputed independently,
  and the ``expected_commitment`` used at verification time
  (:class:`~repro.obs.events.UpdateVerified`) must match that product.
- **blockstore-leak** (end of run, via :meth:`finalize`) — every object
  stored on IPFS must eventually be fetched, consumed by a
  merge-and-download, garbage-collected, or be a sealed snapshot;
  anything else is storage the protocol paid for and never used.

Each violation is recorded on :attr:`violations` *and* republished as an
:class:`~repro.obs.events.InvariantViolated` event, so counters, traces
and the forensics flight recorder pick it up with no extra wiring.  The
monitors publish only ``InvariantViolated`` and ignore their own events,
so no recursion is possible.

The zero-subscriber overhead contract is untouched: monitors are an
ordinary subscriber; a run without them pays the same single boolean
check per emission site as before.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from .bus import EventBus, Subscription
from .events import (
    BlockEvicted,
    BlockFetched,
    BlockStored,
    BytesReceived,
    CommitmentAccumulated,
    GradientRegistered,
    GradientsAggregated,
    InvariantViolated,
    IterationStarted,
    MergeServed,
    PartialUpdateRegistered,
    SnapshotSealed,
    SyncPhaseEnded,
    SyncPhaseStarted,
    TrainerCompleted,
    UpdateRegistered,
    UpdateVerified,
    UploadCompleted,
)

#: Which attribute names the acting participant for iteration-scoped
#: events (used for per-actor iteration monotonicity).  Events without
#: a single actor (verification outcomes, directory bookkeeping) are
#: deliberately absent.
ACTOR_FIELDS = {
    GradientRegistered: "uploader",
    UploadCompleted: "trainer",
    TrainerCompleted: "trainer",
    GradientsAggregated: "aggregator",
    UpdateRegistered: "aggregator",
    PartialUpdateRegistered: "aggregator",
    SyncPhaseStarted: "aggregator",
    SyncPhaseEnded: "aggregator",
    BytesReceived: "participant",
}

#: Tolerance for float byte accounting.
_BYTES_TOL = 1e-6
#: Timestamps may only regress by this much (guards float noise).
_CLOCK_TOL = 1e-9
#: How many leaked CIDs a single leak violation names explicitly.
_LEAK_SAMPLE = 8


class InvariantMonitors:
    """A wildcard bus subscriber enforcing the invariant catalog.

    Attach before the run, call :meth:`finalize` after it::

        recorder = FlightRecorder(session.sim.bus)   # first: sees windows
        monitors = InvariantMonitors(session.sim.bus)
        session.run(rounds=2)
        violations = monitors.finalize()
        assert not violations

    (When pairing with a :class:`~repro.obs.forensics.FlightRecorder`,
    subscribe the recorder *first* so its ring buffer already holds the
    triggering event when a nested ``InvariantViolated`` reaches it.)
    """

    def __init__(self, bus: EventBus):
        self.bus = bus
        #: Every violation caught, in detection order.
        self.violations: List[InvariantViolated] = []
        self._finalized = False

        # clock / iteration monotonicity
        self._last_at = float("-inf")
        self._last_iteration: Optional[int] = None
        self._actor_iteration: Dict[str, int] = {}

        # protocol ordering (per open iteration)
        self._registered: Set[str] = set()       # trainers with gradients in
        self._uploaded: Set[str] = set()         # trainers past UploadCompleted
        self._aggregated: Set[str] = set()       # aggregators past collection
        self._sync_open: Set[str] = set()        # aggregators in sync phase

        # byte conservation (per open iteration)
        self._fetched_bytes: Dict[str, float] = {}

        # commitment consistency: the per-(partition, iteration) product
        # gates both the accumulator's running value and UpdateVerified.
        self._products: Dict[Tuple[int, int], Tuple[object, int]] = {}

        # blockstore leak accounting (whole session, object granularity)
        self._stored: Dict[str, str] = {}        # cid -> storing node
        self._consumed: Set[str] = set()
        self._sealed: Set[str] = set()

        self._dispatch = {
            IterationStarted: self._on_iteration_started,
            GradientRegistered: self._on_gradient_registered,
            UploadCompleted: self._on_upload_completed,
            GradientsAggregated: self._on_gradients_aggregated,
            UpdateRegistered: self._on_update_registered,
            SyncPhaseStarted: self._on_sync_started,
            SyncPhaseEnded: self._on_sync_ended,
            PartialUpdateRegistered: self._on_partial_registered,
            TrainerCompleted: self._on_trainer_completed,
            BlockFetched: self._on_block_fetched,
            BytesReceived: self._on_bytes_received,
            CommitmentAccumulated: self._on_commitment_accumulated,
            UpdateVerified: self._on_update_verified,
            BlockStored: self._on_block_stored,
            MergeServed: self._on_merge_served,
            BlockEvicted: self._on_block_evicted,
            SnapshotSealed: self._on_snapshot_sealed,
        }
        self._subscription: Subscription = bus.subscribe(
            self._handle, *self._dispatch.keys()
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Detach from the bus (violations stay available)."""
        self._subscription.cancel()

    def finalize(self) -> List[InvariantViolated]:
        """Run end-of-session checks (blockstore leaks) and detach.

        Idempotent; returns every violation of the whole run.
        """
        if not self._finalized:
            self._finalized = True
            self._check_leaks()
            self.close()
        return self.violations

    # -- violation plumbing ------------------------------------------------------

    def _violate(self, at: float, invariant: str, subject: str,
                 detail: str, iteration: int = -1) -> None:
        event = InvariantViolated(
            at=at, iteration=iteration, invariant=invariant,
            subject=subject, detail=detail,
        )
        self.violations.append(event)
        self.bus.publish(event)

    # -- dispatch ----------------------------------------------------------------

    def _handle(self, event: tuple) -> None:
        if isinstance(event, InvariantViolated):
            return  # our own output (or a peer monitor's): never re-checked
        at = getattr(event, "at", None)
        if at is not None:
            if at < self._last_at - _CLOCK_TOL:
                self._violate(
                    at, "clock-monotonic", type(event).__name__,
                    f"event at t={at:.6f} after one at "
                    f"t={self._last_at:.6f}",
                )
            self._last_at = max(self._last_at, at)
        actor_field = ACTOR_FIELDS.get(type(event))
        if actor_field is not None:
            actor = getattr(event, actor_field)
            iteration = event.iteration
            last = self._actor_iteration.get(actor)
            if last is not None and iteration < last:
                self._violate(
                    event.at, "iteration-monotonic", actor,
                    f"{type(event).__name__} for iteration {iteration} "
                    f"after {actor} was seen in iteration {last}",
                    iteration=iteration,
                )
            else:
                self._actor_iteration[actor] = iteration
        handler = self._dispatch.get(type(event))
        if handler is not None:
            handler(event)

    # -- iteration boundaries ----------------------------------------------------

    def _on_iteration_started(self, event: IterationStarted) -> None:
        if self._last_iteration is not None \
                and event.iteration <= self._last_iteration:
            self._violate(
                event.at, "iteration-monotonic", "session",
                f"IterationStarted {event.iteration} after "
                f"{self._last_iteration}",
                iteration=event.iteration,
            )
        self._last_iteration = event.iteration
        self._registered = set()
        self._uploaded = set()
        self._aggregated = set()
        self._sync_open = set()
        self._fetched_bytes = {}

    # -- protocol ordering -------------------------------------------------------

    def _ordering(self, event, subject: str, detail: str) -> None:
        self._violate(event.at, "protocol-ordering", subject, detail,
                      iteration=event.iteration)

    def _on_gradient_registered(self, event: GradientRegistered) -> None:
        self._registered.add(event.uploader)

    def _on_upload_completed(self, event: UploadCompleted) -> None:
        if event.trainer not in self._registered:
            self._ordering(
                event, event.trainer,
                "UploadCompleted without a prior GradientRegistered "
                "from this trainer",
            )
        self._uploaded.add(event.trainer)

    def _on_gradients_aggregated(self, event: GradientsAggregated) -> None:
        self._aggregated.add(event.aggregator)

    def _on_update_registered(self, event: UpdateRegistered) -> None:
        if event.aggregator not in self._aggregated:
            self._ordering(
                event, event.aggregator,
                "UpdateRegistered without a prior GradientsAggregated "
                "from this aggregator",
            )

    def _on_sync_started(self, event: SyncPhaseStarted) -> None:
        self._sync_open.add(event.aggregator)

    def _on_sync_ended(self, event: SyncPhaseEnded) -> None:
        if event.aggregator not in self._sync_open:
            self._ordering(
                event, event.aggregator,
                "SyncPhaseEnded without a SyncPhaseStarted",
            )
        self._sync_open.discard(event.aggregator)

    def _on_partial_registered(self,
                               event: PartialUpdateRegistered) -> None:
        if event.aggregator not in self._sync_open:
            self._ordering(
                event, event.aggregator,
                "PartialUpdateRegistered outside a sync phase",
            )

    def _on_trainer_completed(self, event: TrainerCompleted) -> None:
        if event.trainer not in self._uploaded:
            self._ordering(
                event, event.trainer,
                "TrainerCompleted without a prior UploadCompleted",
            )

    # -- byte conservation -------------------------------------------------------

    def _on_block_fetched(self, event: BlockFetched) -> None:
        self._fetched_bytes[event.client] = (
            self._fetched_bytes.get(event.client, 0.0) + event.size
        )
        if event.cid is not None:
            # Merged downloads carry cid=None; their sources are
            # consumed via MergeServed instead.
            self._consumed.add(str(event.cid))

    def _on_bytes_received(self, event: BytesReceived) -> None:
        fetched = self._fetched_bytes.pop(event.participant, 0.0)
        if not math.isclose(event.amount, fetched,
                            rel_tol=1e-9, abs_tol=_BYTES_TOL):
            self._violate(
                event.at, "byte-conservation", event.participant,
                f"reported {event.amount:.0f} B downloaded but "
                f"{fetched:.0f} B of fetches were observed",
                iteration=event.iteration,
            )

    # -- commitment consistency --------------------------------------------------

    def _on_commitment_accumulated(self,
                                   event: CommitmentAccumulated) -> None:
        key = (event.partition_id, event.iteration)
        previous = self._products.get(key)
        if previous is None:
            product, count = event.commitment, 1
        else:
            product, count = previous[0].combine(event.commitment), \
                previous[1] + 1
        self._products[key] = (product, count)
        if product != event.accumulated or count != event.count:
            self._violate(
                event.at, "commitment-consistency",
                f"partition {event.partition_id}",
                f"directory accumulator diverged from the product "
                f"of contributions after {event.uploader} "
                f"(count {event.count} vs {count})",
                iteration=event.iteration,
            )

    def _on_update_verified(self, event: UpdateVerified) -> None:
        if event.expected_commitment is None:
            return
        known = self._products.get((event.partition_id, event.iteration))
        if known is None:
            self._violate(
                event.at, "commitment-consistency",
                f"partition {event.partition_id}",
                "update verified against an accumulator no "
                "CommitmentAccumulated event ever built",
                iteration=event.iteration,
            )
            return
        product, count = known
        if event.expected_commitment != product \
                or event.expected_count != count:
            self._violate(
                event.at, "commitment-consistency",
                f"partition {event.partition_id}",
                f"verification used an accumulated commitment that does "
                f"not match the product of the {count} observed "
                f"contributions",
                iteration=event.iteration,
            )

    # -- blockstore leak detection -----------------------------------------------

    def _on_block_stored(self, event: BlockStored) -> None:
        self._stored.setdefault(str(event.cid), event.node)

    def _on_merge_served(self, event: MergeServed) -> None:
        for cid in event.cids:
            self._consumed.add(str(cid))

    def _on_block_evicted(self, event: BlockEvicted) -> None:
        self._consumed.add(str(event.cid))

    def _on_snapshot_sealed(self, event: SnapshotSealed) -> None:
        self._sealed.add(str(event.cid))

    def _check_leaks(self) -> None:
        leaked = [
            cid for cid, node in sorted(self._stored.items())
            if cid not in self._consumed
            and cid not in self._sealed
        ]
        if leaked:
            sample = ", ".join(leaked[:_LEAK_SAMPLE])
            suffix = "" if len(leaked) <= _LEAK_SAMPLE else \
                f" (+{len(leaked) - _LEAK_SAMPLE} more)"
            self._violate(
                self._last_at if self._last_at > float("-inf") else 0.0,
                "blockstore-leak", "ipfs",
                f"{len(leaked)} stored object(s) never fetched, merged, "
                f"GC'd or sealed: {sample}{suffix}",
            )
