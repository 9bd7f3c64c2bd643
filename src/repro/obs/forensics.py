"""Fault forensics: a flight recorder that seals incident bundles.

Detection without attribution is insufficient for accountability: the
verifier that rejects an aggregate must also say *who* produced it,
*which* trainers' contributions it omitted and *how* it was bad.  The
directory says so where it judges: its
:class:`~repro.obs.events.VerificationFailed` carries the blame its
commitment ledger supports (see the verification section of
``docs/PROTOCOL.md``).  The :class:`FlightRecorder` keeps no ledger of
its own; it is an ordinary bus subscriber that

- keeps the protocol-relevant events (:data:`WINDOW_EVENTS`;
  the per-chunk transfer firehose is excluded) in a bounded
  ring buffer — the *event window*,
- on :class:`~repro.obs.events.VerificationFailed`,
  :class:`~repro.obs.events.InvariantViolated` or
  :class:`~repro.obs.events.AnomalyDetected` (the
  :mod:`repro.obs.anomaly` watchdog's classification) seals an
  :class:`IncidentBundle`: the window, the reconstructed span chain of
  the running iteration (:func:`~repro.obs.spans.build_span_tree`), a
  Perfetto slice of the incident, and — for failed verifications — a
  :class:`BlameReport` copied from the trigger, naming the accused
  aggregator, the affected trainers (with their partition CIDs) and
  the behaviour, one of :mod:`repro.core.adversary`'s strategies.

Subscribe the recorder *before* any :class:`~repro.obs.monitors.
InvariantMonitors` on the same bus, so the ring already contains the
triggering event when a nested ``InvariantViolated`` arrives.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from typing import Deque, List, Optional, Tuple

from .bus import EventBus, Subscription
from .events import (
    EVENT_TYPES,
    AnomalyDetected,
    DirectoryRequest,
    InvariantViolated,
    IterationStarted,
    TransferCompleted,
    TransferStarted,
    VerificationFailed,
)
from .jsonl import event_record
from .perfetto import PerfettoExporter
from .spans import SPAN_EVENTS, SpanTree, build_span_tree

#: Events the recorder's ring holds.
RING_CAPACITY = 512
#: Incident bundles sealed before further triggers are only counted.
MAX_INCIDENTS = 16

#: Event types the recorder keeps in its window: everything except the
#: firehose families — transfer markers and directory polling — which
#: are >90% of the stream and carry no forensic signal an incident
#: needs; recording them would blow the audit overhead budget.
WINDOW_EVENTS = tuple(
    event_type for event_type in EVENT_TYPES
    if event_type not in (TransferStarted, TransferCompleted,
                          DirectoryRequest)
)


@dataclasses.dataclass
class BlameReport:
    """Attribution for one failed verification: the verifier's blame
    (the trigger's fields), or for a check nobody classified, its
    scope and reason."""

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


@dataclasses.dataclass
class IncidentBundle:
    """Everything needed to diagnose one incident offline."""

    #: "verification_failed" | "invariant_violated" |
    #: "anomaly_detected".
    kind: str
    iteration: int
    sealed_at: float
    #: The event that triggered sealing.
    trigger: tuple
    #: The ring-buffer window at sealing time (oldest first).
    events: List[tuple]
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
            "trigger": event_record(self.trigger),
            "blame": self.blame.to_dict() if self.blame else None,
            "events": [event_record(event) for event in self.events],
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
        self._ring: Deque[tuple] = deque(maxlen=RING_CAPACITY)
        self._span_events: List[tuple] = []
        self._open_iteration: int = -1
        self._span_types = tuple(SPAN_EVENTS)
        self._subscription: Subscription = bus.subscribe(
            self._handle, *WINDOW_EVENTS
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self._subscription.cancel()

    @property
    def window(self) -> List[tuple]:
        """The current ring-buffer contents, oldest first."""
        return list(self._ring)

    # -- event handling ----------------------------------------------------------

    def _handle(self, event: tuple) -> None:
        self._ring.append(event)
        cls = type(event)
        if cls is IterationStarted:
            self._open_iteration = event.iteration
            self._span_events = [event]
        elif isinstance(event, self._span_types):
            if getattr(event, "iteration", self._open_iteration) \
                    == self._open_iteration:
                self._span_events.append(event)
        if cls is VerificationFailed:
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

    # -- sealing -----------------------------------------------------------------

    def _seal(self, kind: str, trigger: tuple, iteration: int) -> None:
        if len(self.incidents) >= MAX_INCIDENTS:
            self.suppressed += 1
            return
        blame = None
        if isinstance(trigger, VerificationFailed):
            blame = _blame(trigger)
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


def _blame(failure: VerificationFailed) -> BlameReport:
    """The blame the failed check carries: the directory classifies a
    rejected update; a check nobody classified (a peer's partial, a
    trainer's delegated check) is ``unknown`` and says its scope."""
    report = BlameReport(**{field.name: getattr(failure, field.name)
                            for field in dataclasses.fields(BlameReport)})
    if not report.detail:
        report.detail = failure.reason or failure.label
        if failure.scope != "update":
            report.detail = f"{failure.scope} check failed: {report.detail}"
    return report
