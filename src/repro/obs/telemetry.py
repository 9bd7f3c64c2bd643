"""Telemetry: the measurements the paper's evaluation reports.

The paper measures (Sec. V):

- *upload delay* — trainer put until the IPFS store acknowledgment,
- *aggregation delay* — first gradient hash written to the directory
  until all uploaded gradients are aggregated,
- *synchronization delay* — multi-aggregator partial-update exchange,
- *data received per aggregator per iteration*,
- commitment computation/verification time.

Protocol participants only publish :mod:`repro.obs` events; a
:class:`TelemetryCollector` (every session owns one) folds the event
stream into :class:`IterationMetrics` / :class:`SessionMetrics`, the
stable analysis-facing API; ``to_dict`` snapshots them as plain JSON.

Routing: events carry an ``iteration``; the collector only applies them
while that iteration is *open* (between ``IterationStarted`` and
``IterationFinished``).  A stale event — e.g. a directory verification
process that only gets scheduled during the next round — is dropped,
matching the legacy behaviour where the session snapshotted directory
state at round end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .bus import EventBus, Subscription
from .events import (
    BytesReceived,
    CommitmentComputed,
    GradientRegistered,
    GradientsAggregated,
    IterationFinished,
    IterationStarted,
    PROTOCOL_EVENTS,
    ParticipantDegraded,
    SyncPhaseEnded,
    TakeoverPerformed,
    TrainerCompleted,
    UpdateRegistered,
    UploadCompleted,
    VerificationFailed,
)

__all__ = ["IterationMetrics", "SessionMetrics", "TelemetryCollector"]


@dataclass
class IterationMetrics:
    """Everything measured during one training round."""

    iteration: int
    started_at: float = 0.0
    finished_at: float = 0.0
    #: trainer -> seconds from gradient put to store ack (mean over
    #: partitions).
    upload_delays: Dict[str, float] = field(default_factory=dict)
    #: Simulated time the first gradient CID reached the directory.
    first_gradient_at: Optional[float] = None
    #: aggregator -> time it finished aggregating its trainers' gradients.
    gradients_aggregated_at: Dict[str, float] = field(default_factory=dict)
    #: aggregator -> time its (or its partition's) global update was
    #: registered.
    update_registered_at: Dict[str, float] = field(default_factory=dict)
    #: aggregator -> bytes downloaded this iteration.
    bytes_received: Dict[str, float] = field(default_factory=dict)
    #: aggregator -> seconds spent in the synchronization phase.
    sync_delays: Dict[str, float] = field(default_factory=dict)
    #: Simulated commitment seconds charged per participant (verifiable
    #: mode; 0.0 each without a commitment cost model).
    commit_seconds: Dict[str, float] = field(default_factory=dict)
    #: Verification failures observed (addresses as strings).
    verification_failures: List[str] = field(default_factory=list)
    #: Trainers that completed the round with an updated model.
    trainers_completed: List[str] = field(default_factory=list)
    #: Aggregator takeovers performed (dead aggregator ids).
    takeovers: List[str] = field(default_factory=list)
    #: participant -> why it dropped out of this round (crashed,
    #: retries exhausted, offline fault window, missed deadline).
    degraded: Dict[str, str] = field(default_factory=dict)

    # -- derived quantities -----------------------------------------------------

    @property
    def aggregation_delay(self) -> Optional[float]:
        """First gradient registration -> all aggregators done (paper's
        definition of the gradients-aggregation delay)."""
        if self.first_gradient_at is None or not self.gradients_aggregated_at:
            return None
        return max(self.gradients_aggregated_at.values()) - self.first_gradient_at

    @property
    def sync_delay(self) -> Optional[float]:
        """Mean synchronization time across aggregators."""
        if not self.sync_delays:
            return None
        return sum(self.sync_delays.values()) / len(self.sync_delays)

    @property
    def total_aggregation_delay(self) -> Optional[float]:
        """First gradient registration -> last global update registered
        (the Fig. 2 'total aggregation delay')."""
        if self.first_gradient_at is None or not self.update_registered_at:
            return None
        return max(self.update_registered_at.values()) - self.first_gradient_at

    @property
    def collection_time(self) -> Optional[float]:
        """Iteration start -> all aggregators hold all their gradients.

        The system-comparable form of the aggregation delay: unlike
        :attr:`aggregation_delay` it does not depend on when the first
        registration lands, so it is meaningful for the direct baseline
        (which has no directory) too."""
        if not self.gradients_aggregated_at:
            return None
        return max(self.gradients_aggregated_at.values()) - self.started_at

    @property
    def end_to_end_delay(self) -> Optional[float]:
        """Iteration start -> last global update registered: the combined
        objective the provider-count trade-off (Fig. 1) optimizes."""
        if not self.update_registered_at:
            return None
        return max(self.update_registered_at.values()) - self.started_at

    @property
    def mean_upload_delay(self) -> Optional[float]:
        if not self.upload_delays:
            return None
        return sum(self.upload_delays.values()) / len(self.upload_delays)

    @property
    def mean_bytes_received(self) -> Optional[float]:
        if not self.bytes_received:
            return None
        return sum(self.bytes_received.values()) / len(self.bytes_received)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (raw fields + derived values).

        ``degraded`` appears only when non-empty, keeping honest-run
        snapshots identical to those captured before fault injection
        existed.
        """
        snapshot = self._base_dict()
        if self.degraded:
            snapshot["degraded"] = dict(self.degraded)
        return snapshot

    def _base_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration": self.duration,
            "upload_delays": dict(self.upload_delays),
            "first_gradient_at": self.first_gradient_at,
            "gradients_aggregated_at": dict(self.gradients_aggregated_at),
            "update_registered_at": dict(self.update_registered_at),
            "bytes_received": dict(self.bytes_received),
            "sync_delays": dict(self.sync_delays),
            "commit_seconds": dict(self.commit_seconds),
            "verification_failures": list(self.verification_failures),
            "trainers_completed": list(self.trainers_completed),
            "takeovers": list(self.takeovers),
            "aggregation_delay": self.aggregation_delay,
            "sync_delay": self.sync_delay,
            "total_aggregation_delay": self.total_aggregation_delay,
            "collection_time": self.collection_time,
            "end_to_end_delay": self.end_to_end_delay,
            "mean_upload_delay": self.mean_upload_delay,
            "mean_bytes_received": self.mean_bytes_received,
        }


@dataclass
class SessionMetrics:
    """Per-iteration metrics for a whole run."""

    iterations: List[IterationMetrics] = field(default_factory=list)

    def latest(self) -> IterationMetrics:
        if not self.iterations:
            raise IndexError("no iterations recorded")
        return self.iterations[-1]

    def mean_over_iterations(self, attribute: str) -> Optional[float]:
        """Average a derived property over recorded iterations."""
        values = [
            getattr(metrics, attribute) for metrics in self.iterations
        ]
        values = [value for value in values if value is not None]
        if not values:
            return None
        return sum(values) / len(values)

    def to_dict(self) -> dict:
        """JSON-serializable form of the whole run."""
        return {
            "iterations": [m.to_dict() for m in self.iterations],
        }


class TelemetryCollector:
    """Builds a :class:`SessionMetrics` from the protocol event stream.

    Consumes only :data:`~repro.obs.events.PROTOCOL_EVENTS`.
    """

    def __init__(self, bus: EventBus):
        #: The run's accumulated metrics (same object for the session's
        #: whole lifetime, so holders never see a stale copy).
        self.session = SessionMetrics()
        self._open: Dict[int, IterationMetrics] = {}
        self._dispatch = {
            IterationStarted: self._on_started,
            IterationFinished: self._on_finished,
            GradientRegistered: self._on_gradient,
            UpdateRegistered: self._on_update,
            GradientsAggregated: self._on_aggregated,
            UploadCompleted: self._on_upload,
            BytesReceived: self._on_bytes,
            SyncPhaseEnded: self._on_sync_ended,
            CommitmentComputed: self._on_commitment,
            VerificationFailed: self._on_verification_failed,
            TrainerCompleted: self._on_trainer_completed,
            TakeoverPerformed: self._on_takeover,
            ParticipantDegraded: self._on_degraded,
        }
        self._subscription: Subscription = bus.subscribe(
            self._handle, *PROTOCOL_EVENTS
        )

    def close(self) -> None:
        """Stop collecting (already-recorded metrics stay available)."""
        self._subscription.cancel()

    @property
    def metrics(self):
        """Alias for :attr:`session` (reads like ``session.metrics``)."""
        return self.session

    # -- event handling ----------------------------------------------------------

    def _handle(self, event) -> None:
        self._dispatch[type(event)](event)

    def _current(self, iteration: int) -> Optional[IterationMetrics]:
        return self._open.get(iteration)

    def _on_started(self, event) -> None:
        metrics = IterationMetrics(
            iteration=event.iteration, started_at=event.at
        )
        self._open[event.iteration] = metrics
        self.session.iterations.append(metrics)

    def _on_finished(self, event) -> None:
        metrics = self._open.pop(event.iteration, None)
        if metrics is not None:
            metrics.finished_at = event.at

    def _on_gradient(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None and metrics.first_gradient_at is None:
            metrics.first_gradient_at = event.at

    def _on_update(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None:
            metrics.update_registered_at[event.aggregator] = event.at

    def _on_aggregated(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None:
            metrics.gradients_aggregated_at[event.aggregator] = event.at

    def _on_upload(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None:
            metrics.upload_delays[event.trainer] = event.delay

    def _on_bytes(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None:
            metrics.bytes_received[event.participant] = (
                metrics.bytes_received.get(event.participant, 0.0)
                + event.amount
            )

    def _on_sync_ended(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None:
            metrics.sync_delays[event.aggregator] = event.duration

    def _on_commitment(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None:
            metrics.commit_seconds[event.participant] = (
                metrics.commit_seconds.get(event.participant, 0.0)
                + event.seconds
            )

    def _on_verification_failed(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None:
            metrics.verification_failures.append(event.label)

    def _on_trainer_completed(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None:
            metrics.trainers_completed.append(event.trainer)

    def _on_takeover(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None:
            metrics.takeovers.append(event.peer)

    def _on_degraded(self, event) -> None:
        metrics = self._current(event.iteration)
        if metrics is not None:
            metrics.degraded[event.participant] = event.reason
