"""Named counters and gauges derived from the event stream.

:class:`CountersRegistry` answers the Sec. VI load questions without any
per-figure instrumentation: directory request volume by kind, DHT
lookups and hops, bytes moved by layer, protocol outcome counts.  It is
an ordinary bus subscriber — attach one to any run::

    counters = CountersRegistry(session.sim.bus)
    session.run(rounds=3)
    print(counters.snapshot())

Counter names are dotted paths (``layer.metric``); see
``docs/OBSERVABILITY.md`` for the stable set.
"""

from __future__ import annotations

from typing import Dict

from .bus import EventBus
from .events import (
    AnomalyDetected,
    BlockEvicted,
    BlockFetched,
    BlockStored,
    CommitmentAccumulated,
    DhtLookup,
    DirectoryRequest,
    FaultHealed,
    FaultInjected,
    GradientRegistered,
    InvariantViolated,
    IterationFinished,
    MergeServed,
    PartialUpdateRegistered,
    ParticipantDegraded,
    RetryExhausted,
    SnapshotSealed,
    TakeoverPerformed,
    TrainerCompleted,
    TrainingEvaluated,
    TransferAborted,
    TransferCompleted,
    UpdateRegistered,
    UpdateVerified,
    VerificationFailed,
)


class CountersRegistry:
    """Monotonic counters plus last-value gauges over bus events."""

    def __init__(self, bus: EventBus):
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._dispatch = {
            TransferCompleted: self._on_transfer,
            TransferAborted: self._on_transfer_aborted,
            BlockStored: self._on_block_stored,
            BlockFetched: self._on_block_fetched,
            BlockEvicted: self._on_block_evicted,
            MergeServed: self._on_merge_served,
            DhtLookup: self._on_dht_lookup,
            DirectoryRequest: self._on_directory_request,
            GradientRegistered: self._on_gradient,
            CommitmentAccumulated: self._on_commitment_accumulated,
            PartialUpdateRegistered: self._on_partial,
            UpdateRegistered: self._on_update,
            UpdateVerified: self._on_update_verified,
            VerificationFailed: self._on_verification_failed,
            InvariantViolated: self._on_invariant_violated,
            TakeoverPerformed: self._on_takeover,
            TrainerCompleted: self._on_trainer_completed,
            IterationFinished: self._on_iteration_finished,
            SnapshotSealed: self._on_snapshot_sealed,
            FaultInjected: self._on_fault_injected,
            FaultHealed: self._on_fault_healed,
            RetryExhausted: self._on_retry_exhausted,
            ParticipantDegraded: self._on_participant_degraded,
            TrainingEvaluated: self._on_training_evaluated,
            AnomalyDetected: self._on_anomaly_detected,
        }
        self._subscription = bus.subscribe(
            self._handle, *self._dispatch.keys()
        )

    def close(self) -> None:
        self._subscription.cancel()

    # -- manual API (for subscribers layering their own measures) ---------------

    def increment(self, name: str, by: float = 1.0) -> float:
        """Add ``by`` to counter ``name``; returns the new value."""
        value = self._counters.get(name, 0.0) + by
        self._counters[name] = value
        return value

    def set_gauge(self, name: str, value: float) -> None:
        """Record the current value of gauge ``name``."""
        self._gauges[name] = value

    def get(self, name: str) -> float:
        """Current value of a counter or gauge (0.0 when never touched)."""
        if name in self._counters:
            return self._counters[name]
        return self._gauges.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    def snapshot(self) -> Dict[str, float]:
        """All counters and gauges, sorted by name."""
        merged = {**self._counters, **self._gauges}
        return dict(sorted(merged.items()))

    # -- event handlers ----------------------------------------------------------

    def _handle(self, event) -> None:
        self._dispatch[type(event)](event)

    def _on_transfer(self, event) -> None:
        self.increment("net.transfers")
        self.increment("net.bytes", event.size)

    def _on_transfer_aborted(self, event) -> None:
        self.increment("net.transfers_aborted")
        self.increment("net.bytes_aborted", event.size)

    def _on_block_stored(self, event) -> None:
        self.increment("ipfs.objects_stored")
        self.increment("ipfs.bytes_stored", event.size)

    def _on_block_fetched(self, event) -> None:
        self.increment("ipfs.fetches")
        self.increment("ipfs.bytes_fetched", event.size)

    def _on_block_evicted(self, event) -> None:
        self.increment("ipfs.blocks_evicted")
        self.increment("ipfs.bytes_evicted", event.size)

    def _on_merge_served(self, event) -> None:
        self.increment("ipfs.merges_served")
        self.increment("ipfs.bytes_merged", event.size)

    def _on_dht_lookup(self, event) -> None:
        self.increment("dht.lookups")
        self.increment("dht.hops", event.hops)
        self.increment("dht.providers_found", event.providers)

    def _on_directory_request(self, event) -> None:
        self.increment("directory.requests")
        self.increment(f"directory.requests.{event.kind}")

    def _on_gradient(self, event) -> None:
        self.increment("protocol.gradients_registered")

    def _on_commitment_accumulated(self, event) -> None:
        self.increment("protocol.commitments_accumulated")

    def _on_partial(self, event) -> None:
        self.increment("protocol.partial_updates_registered")

    def _on_update(self, event) -> None:
        self.increment("protocol.updates_registered")

    def _on_update_verified(self, event) -> None:
        self.increment("protocol.updates_verified")
        if not event.ok:
            self.increment("protocol.updates_rejected")

    def _on_verification_failed(self, event) -> None:
        self.increment("protocol.verification_failures")
        self.increment(f"protocol.verification_failures.{event.scope}")

    def _on_invariant_violated(self, event) -> None:
        self.increment("obs.invariant_violations")
        self.increment(f"obs.invariant_violations.{event.invariant}")

    def _on_snapshot_sealed(self, event) -> None:
        self.increment("protocol.snapshots_sealed")

    def _on_takeover(self, event) -> None:
        self.increment("protocol.takeovers")

    def _on_trainer_completed(self, event) -> None:
        self.increment("protocol.trainers_completed")

    def _on_iteration_finished(self, event) -> None:
        self.increment("protocol.iterations")

    def _on_fault_injected(self, event) -> None:
        self.increment("faults.injected")
        self.increment(f"faults.injected.{event.kind}")

    def _on_fault_healed(self, event) -> None:
        self.increment("faults.healed")

    def _on_retry_exhausted(self, event) -> None:
        self.increment("protocol.retries_exhausted")
        self.increment(f"protocol.retries_exhausted.{event.operation}")

    def _on_participant_degraded(self, event) -> None:
        self.increment("protocol.participants_degraded")
        self.increment(f"protocol.participants_degraded.{event.role}")

    def _on_training_evaluated(self, event) -> None:
        self.increment("ml.evaluations")
        self.set_gauge("ml.loss.last", event.loss)
        if event.accuracy is not None:
            self.set_gauge("ml.accuracy.last", event.accuracy)

    def _on_anomaly_detected(self, event) -> None:
        self.increment("obs.anomaly.detected")
        self.increment(f"obs.anomaly.detected.{event.kind}")
        self.set_gauge("obs.anomaly.last_at", event.at)
