"""Fault forensics: a flight recorder that seals incident bundles.

Detection without attribution is insufficient for accountability: a bare
:class:`~repro.obs.events.VerificationFailed` says *that* an aggregate
was bad, not *who* produced it, *which* trainers' contributions it
omitted, or *how* it was bad.  The :class:`FlightRecorder` closes that
gap as an ordinary bus subscriber:

- it keeps the protocol-relevant events (:data:`WINDOW_EVENTS`;
  the per-chunk transfer firehose is excluded) in a bounded
  ring buffer — the *event window*,
- it tracks each partition's registered contributions — uploader,
  Pedersen commitment, CID — and the directory's accumulator totals,
- on :class:`~repro.obs.events.VerificationFailed`,
  :class:`~repro.obs.events.InvariantViolated` or
  :class:`~repro.obs.events.AnomalyDetected` (the
  :mod:`repro.obs.anomaly` watchdog's classification) it seals an
  :class:`IncidentBundle`: the window, the reconstructed span chain of
  the running iteration (:func:`~repro.obs.spans.build_span_tree`), a
  Perfetto slice of the incident, and — for failed update
  verifications — a :class:`BlameReport` naming the guilty aggregator,
  the affected trainers (with their partition CIDs) and classifying the
  behaviour as one of :mod:`repro.core.adversary`'s strategies.

Classification works from the commitment algebra alone (no access to
the aggregator's internals):

``replayed``
    the claimed commitment equals the *previous* round's accumulated
    product — a stale aggregate
    (:class:`~repro.core.adversary.ReplayUpdateBehavior`);
``lazy`` / ``dropped``
    the claimed averaging counter ``k`` is below the contributor count
    ``n`` and some ``k``-subset of the registered commitments multiplies
    to the claimed commitment — the complement is the dropped trainer
    set; ``k == 1`` is the lazy signature
    (:class:`~repro.core.adversary.LazyBehavior`), ``k > 1`` a fractional
    drop (:class:`~repro.core.adversary.DropGradientsBehavior`);
``altered``
    the counter claims all ``n`` contributions but the commitment does
    not open — the values were perturbed
    (:class:`~repro.core.adversary.AlterUpdateBehavior`);
``unknown``
    anything else (counter out of range, or a ``k``-subset mismatch on
    top of alteration).

Subscribe the recorder *before* any :class:`~repro.obs.monitors.
InvariantMonitors` on the same bus, so the ring already contains the
triggering event when a nested ``InvariantViolated`` arrives.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from . import events as _events_module
from .bus import EventBus, Subscription
from .events import (
    AnomalyDetected,
    CommitmentAccumulated,
    DirectoryRequest,
    Event,
    GradientRegistered,
    InvariantViolated,
    IterationFinished,
    IterationStarted,
    TransferCompleted,
    TransferStarted,
    UpdateVerified,
    VerificationFailed,
)
from .perfetto import PerfettoExporter
from .spans import SPAN_EVENTS, SpanTree, build_span_tree

__all__ = ["BlameReport", "FlightRecorder", "IncidentBundle",
           "MAX_BLAME_SEARCH", "WINDOW_EVENTS"]

#: Subset search is exponential; above this many contributors the
#: classifier reports counts only (the honest contributor counts of every
#: experiment in the paper are well below it).
MAX_BLAME_SEARCH = 16

#: Events the recorder's ring holds.
RING_CAPACITY = 512
#: Incident bundles sealed before further triggers are only counted.
MAX_INCIDENTS = 16

#: Event types the recorder keeps in its window: everything except the
#: firehose families — transfer markers and directory polling — which
#: are >90% of the stream and carry no forensic signal an incident
#: needs; recording them would blow the audit overhead budget.
WINDOW_EVENTS = tuple(
    obj for _, obj in sorted(
        inspect.getmembers(_events_module, inspect.isclass)
    )
    if issubclass(obj, Event) and obj is not Event
    and obj not in (TransferStarted, TransferCompleted, DirectoryRequest)
)

#: Contribution bookkeeping is pruned below this many iterations back.
_KEEP_ITERATIONS = 2


@dataclasses.dataclass
class BlameReport:
    """Attribution for one failed verification."""

    #: The accused participant (the update's uploader).
    aggregator: Optional[str]
    partition_id: int
    iteration: int
    #: "dropped" | "altered" | "replayed" | "lazy" | "unknown".
    classification: str
    #: Trainers whose contributions the aggregate provably omitted.
    dropped_trainers: Tuple[str, ...] = ()
    #: The omitted trainers' partition CIDs (aligned with
    #: :attr:`dropped_trainers`).
    dropped_cids: Tuple[str, ...] = ()
    #: Trainers whose contributions the aggregate does include.
    kept_trainers: Tuple[str, ...] = ()
    #: Contributions the directory accumulated for the partition.
    expected_count: int = 0
    #: The averaging counter decoded from the claimed aggregate.
    claimed_counter: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _event_record(event: Event) -> dict:
    """One JSON-friendly dict per event (the JSONL trace schema)."""
    record = {"event": type(event).__name__}
    for field in dataclasses.fields(event):
        record[field.name] = getattr(event, field.name)
    return record


@dataclasses.dataclass
class IncidentBundle:
    """Everything needed to diagnose one incident offline."""

    #: "verification_failed" | "invariant_violated" |
    #: "anomaly_detected".
    kind: str
    iteration: int
    sealed_at: float
    #: The event that triggered sealing.
    trigger: Event
    #: The ring-buffer window at sealing time (oldest first).
    events: List[Event]
    blame: Optional[BlameReport] = None
    #: Span chain of the running iteration, when reconstructible.
    span_tree: Optional[SpanTree] = None

    def perfetto(self) -> dict:
        """A Perfetto/Chrome trace-event slice of the incident window.

        Anomalies in the window render as instant markers on a
        dedicated track, so the slice shows *when* the watchdog fired
        relative to the span chain.
        """
        trees = [self.span_tree] if self.span_tree is not None else []
        exporter = PerfettoExporter(trees)
        anomalies = [event for event in self.events
                     if isinstance(event, AnomalyDetected)]
        if anomalies:
            exporter.add_anomalies(anomalies)
        return exporter.to_dict()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "iteration": self.iteration,
            "sealed_at": self.sealed_at,
            "trigger": _event_record(self.trigger),
            "blame": self.blame.to_dict() if self.blame else None,
            "events": [_event_record(event) for event in self.events],
            "perfetto": self.perfetto(),
        }

    def write(self, path: str) -> None:
        """Serialize the bundle as JSON (non-native values stringified)."""
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.to_dict(), stream, indent=2, default=str)
            stream.write("\n")

    def summary(self) -> str:
        head = (f"[{self.kind}] iteration {self.iteration} "
                f"at t={self.sealed_at:.3f} "
                f"({len(self.events)} events in window)")
        if self.blame is None:
            return head
        blame = self.blame
        dropped = ", ".join(blame.dropped_trainers) or "-"
        return (f"{head}\n  accused: {blame.aggregator} "
                f"(partition {blame.partition_id})"
                f"\n  classification: {blame.classification}"
                f"\n  counter: {blame.claimed_counter:g} of "
                f"{blame.expected_count} contributions"
                f"\n  dropped: {dropped}")


class FlightRecorder:
    """Bounded ring-buffer recorder sealing incident bundles."""

    def __init__(self, bus: EventBus):
        self.bus = bus
        #: Sealed bundles, oldest first (at most :data:`MAX_INCIDENTS`).
        self.incidents: List[IncidentBundle] = []
        #: Incidents dropped after :attr:`incidents` filled up.
        self.suppressed = 0
        self._ring: Deque[Event] = deque(maxlen=RING_CAPACITY)
        #: (partition, iteration) -> [(uploader, commitment, cid)].
        self._contributions: Dict[Tuple[int, int],
                                  List[Tuple[str, object, str]]] = {}
        #: (partition, iteration) -> (accumulated product, count).
        #: Kept across iterations: the replay check needs round i-1.
        self._totals: Dict[Tuple[int, int], Tuple[object, int]] = {}
        #: (uploader, partition, iteration) -> cid (stamped by
        #: GradientRegistered; CommitmentAccumulated collects it).
        self._pending_cids: Dict[Tuple[str, int, int], str] = {}
        #: (partition, iteration) -> last UpdateVerified.
        self._verified: Dict[Tuple[int, int], UpdateVerified] = {}
        self._span_events: List[Event] = []
        self._open_iteration: int = -1
        self._span_types = tuple(SPAN_EVENTS)
        self._subscription: Subscription = bus.subscribe(
            self._handle, *WINDOW_EVENTS
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self._subscription.cancel()

    @property
    def window(self) -> List[Event]:
        """The current ring-buffer contents, oldest first."""
        return list(self._ring)

    @property
    def occupancy(self) -> int:
        """Events currently held in the ring (for progress heartbeats)."""
        return len(self._ring)

    # -- event handling ----------------------------------------------------------

    def _handle(self, event: Event) -> None:
        self._ring.append(event)
        cls = type(event)
        if cls is IterationStarted:
            self._open_iteration = event.iteration
            self._span_events = [event]
            self._prune(event.iteration)
        elif isinstance(event, self._span_types):
            if getattr(event, "iteration", self._open_iteration) \
                    == self._open_iteration:
                self._span_events.append(event)
        if cls is GradientRegistered and event.cid is not None:
            self._pending_cids[
                (event.uploader, event.partition_id, event.iteration)
            ] = event.cid
        elif cls is CommitmentAccumulated:
            key = (event.partition_id, event.iteration)
            cid = self._pending_cids.get(
                (event.uploader, event.partition_id, event.iteration), ""
            )
            self._contributions.setdefault(key, []).append(
                (event.uploader, event.commitment, cid)
            )
            self._totals[key] = (event.accumulated, event.count)
        elif cls is UpdateVerified:
            self._verified[(event.partition_id, event.iteration)] = event
        elif cls is VerificationFailed:
            self._seal("verification_failed", event, event.iteration)
        elif cls is InvariantViolated:
            self._seal("invariant_violated", event, event.iteration)
        elif cls is AnomalyDetected:
            # The watchdog classified a degradation: auto-produce an
            # incident bundle so the run leaves evidence behind even
            # when no invariant tripped.  The trigger is already in the
            # ring (appended above), so the window shows the anomaly in
            # context.
            self._seal("anomaly_detected", event, event.iteration)

    def _prune(self, current_iteration: int) -> None:
        """Drop per-contribution bookkeeping older than the replay
        horizon (accumulator totals are tiny and kept)."""
        horizon = current_iteration - _KEEP_ITERATIONS
        for mapping in (self._contributions, self._verified):
            stale = [key for key in mapping if key[1] < horizon]
            for key in stale:
                del mapping[key]
        stale = [key for key in self._pending_cids if key[2] < horizon]
        for key in stale:
            del self._pending_cids[key]

    # -- sealing -----------------------------------------------------------------

    def _seal(self, kind: str, trigger: Event, iteration: int) -> None:
        if len(self.incidents) >= MAX_INCIDENTS:
            self.suppressed += 1
            return
        blame = None
        if isinstance(trigger, VerificationFailed):
            blame = self._blame(trigger)
        tree = None
        if self._span_events:
            # The iteration is still running (no IterationFinished yet):
            # build_span_tree falls back to the latest timestamp as the
            # root's end, which is exactly the incident horizon.
            tree = build_span_tree(self._span_events)
        self.incidents.append(IncidentBundle(
            kind=kind, iteration=iteration,
            sealed_at=trigger.at, trigger=trigger,
            events=list(self._ring), blame=blame, span_tree=tree,
        ))

    # -- blame -------------------------------------------------------------------

    def _blame(self, failure: VerificationFailed) -> BlameReport:
        report = BlameReport(
            aggregator=failure.aggregator,
            partition_id=failure.partition_id,
            iteration=failure.iteration,
            classification="unknown",
            detail=failure.reason or failure.label,
        )
        if failure.scope != "update":
            report.detail = (
                f"{failure.scope} check failed: {report.detail}"
            )
            return report
        key = (failure.partition_id, failure.iteration)
        verified = self._verified.get(key)
        contributions = sorted(
            self._contributions.get(key, ()), key=lambda c: c[0]
        )
        if verified is None or verified.claimed_commitment is None:
            report.detail += " (no commitment record to classify from)"
            return report
        report.expected_count = verified.expected_count
        report.claimed_counter = verified.claimed_counter
        n = len(contributions)

        # Replayed?  The stale aggregate opens the *previous* round's
        # accumulator.  Checked first: a replayed counter can equal n.
        previous = self._totals.get(
            (failure.partition_id, failure.iteration - 1)
        )
        if previous is not None \
                and verified.claimed_commitment == previous[0]:
            report.classification = "replayed"
            report.dropped_trainers = tuple(c[0] for c in contributions)
            report.dropped_cids = tuple(c[2] for c in contributions)
            report.detail = (
                f"claimed aggregate opens iteration "
                f"{failure.iteration - 1}'s accumulated commitment "
                f"({previous[1]} stale contributions)"
            )
            return report

        k = int(round(verified.claimed_counter))
        if k == n and n > 0:
            report.classification = "altered"
            report.kept_trainers = tuple(c[0] for c in contributions)
            report.detail = (
                f"counter claims all {n} contributions but the "
                f"commitment does not open: values were altered"
            )
            return report
        if 1 <= k < n:
            kept = self._find_subset(contributions, k,
                                     verified.claimed_commitment)
            if kept is not None:
                kept_names = {c[0] for c in kept}
                dropped = [c for c in contributions
                           if c[0] not in kept_names]
                report.classification = "lazy" if k == 1 else "dropped"
                report.kept_trainers = tuple(sorted(kept_names))
                report.dropped_trainers = tuple(c[0] for c in dropped)
                report.dropped_cids = tuple(c[2] for c in dropped)
                report.detail = (
                    f"aggregate provably sums exactly "
                    f"{k} of {n} contributions; "
                    f"omitted: {', '.join(report.dropped_trainers)}"
                )
            else:
                report.classification = "dropped"
                report.detail = (
                    f"counter shows {k} of {n} contributions but no "
                    f"{k}-subset opens the commitment (dropped and "
                    f"possibly also altered)"
                )
            return report
        report.detail = (
            f"counter {verified.claimed_counter:g} outside [1, {n}]: "
            f"unclassifiable"
        )
        return report

    @staticmethod
    def _find_subset(contributions, k: int, target):
        """The ``k``-subset whose commitment product equals ``target``,
        or None.  Deterministic: contributions arrive name-sorted, and
        :func:`itertools.combinations` preserves that order, so ties
        (identical commitments) resolve to the lexicographically first
        subset — matching the sorted-keys semantics of the drop/lazy
        behaviours."""
        if len(contributions) > MAX_BLAME_SEARCH:
            return None
        for subset in itertools.combinations(contributions, k):
            product = subset[0][1]
            for _, commitment, _ in subset[1:]:
                product = product.combine(commitment)
            if product == target:
                return subset
        return None
