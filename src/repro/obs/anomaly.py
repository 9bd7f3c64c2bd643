"""Online anomaly watchdog: pluggable detectors over the event bus.

The paper's efficiency claims assume runs do not silently degrade; on
a long run nobody is reading Perfetto traces live.  This module turns
the event bus into the "central vantage point" the decentralized
protocol itself lacks: an :class:`AnomalyWatchdog` hosts small online
detectors that watch the typed event stream plus periodically sampled
substrate state, and publish a typed
:class:`~repro.obs.events.AnomalyDetected` back onto the bus whenever a
degradation is classified.  Downstream the anomaly is just another
event: :class:`~repro.obs.counters.CountersRegistry` counts it into
``obs.anomaly.*`` manifest gauges, the
:class:`~repro.obs.forensics.FlightRecorder` treats it as a seal
trigger (anomalies auto-produce incident bundles), Perfetto timelines
show instant markers, and the
:class:`~repro.obs.progress.ProgressReporter` heartbeat carries a
running count.

Detector catalog (``docs/OBSERVABILITY.md`` documents evidence
schemas):

===================== ===========================================
kind                  fired when
===================== ===========================================
``retry_storm``       RetryExhausted/TransferAborted rate spikes
                      against the preceding trailing window
``throughput_collapse`` registrations stall mid-round (trailing-
                      median gap floor) or miss the round deadline
``queue_runaway``     directory inbox depth exceeds its limit
``sim_stall``         a round overruns ``t_sync`` by a margin while
                      still open (livelock tripwire)
``divergence``        per-round mean loss blows past the best seen
``convergence_stall`` no relative loss improvement for ``patience``
                      rounds
===================== ===========================================

Contracts, in order of importance:

- **Sim-clock control only.**  Detection windows, tick cadence and
  every threshold read the simulated clock.  The one wall-clock check
  (:meth:`AnomalyWatchdog.check_wall`, the "wall advances but sim
  doesn't" livelock probe) records locally and never publishes: a
  bus event stamped from wall time would differ between replays and
  break byte-identical manifests.
- **Replay-safe.**  Ticks only read state; detectors are deterministic
  functions of the event stream and tick instants; published anomalies
  carry only sim-time evidence.  A watchdog-attached seeded replay is
  byte-identical to another watchdog-attached replay, and its config
  fingerprint equals the bare run's.
- **Fire-once arming.**  Every detector disarms after firing (per
  window or per round) and re-arms only when the triggering condition
  clears, so a sustained fault cannot flood the recorder's bounded
  incident budget.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from .events import (
    AnomalyDetected,
    GradientRegistered,
    IterationFinished,
    IterationStarted,
    RetryExhausted,
    TrainingEvaluated,
    TransferAborted,
)
from .metrics import SimTicker
from .profiling import SYSTEM_WALL_CLOCK

__all__ = [
    "ANOMALY_KINDS",
    "AnomalyWatchdog",
    "ConvergenceDetector",
    "Detector",
    "QueueRunawayDetector",
    "RetryStormDetector",
    "SimStallDetector",
    "ThroughputCollapseDetector",
]

#: Every anomaly ``kind`` the stock detectors can emit.
ANOMALY_KINDS = (
    "retry_storm",
    "throughput_collapse",
    "queue_runaway",
    "sim_stall",
    "divergence",
    "convergence_stall",
)


class Detector:
    """Base class for online anomaly detectors.

    A detector declares the exact event types it taps
    (:attr:`event_types`), folds events in :meth:`observe`, and gets a
    periodic :meth:`on_tick` at the watchdog's sim-clock cadence for
    conditions that are about the *absence* of events.  Both return an
    iterable of :class:`AnomalyDetected` to publish (usually empty).
    """

    #: Catalog name stamped on emitted anomalies.
    kind: str = "anomaly"
    #: Exact event classes to tap.
    event_types: Tuple[type, ...] = ()

    def observe(self, event) -> Iterable[AnomalyDetected]:
        """Fold one tapped event; yield anomalies to publish."""
        return ()

    def on_tick(self, now: float) -> Iterable[AnomalyDetected]:
        """Periodic check at simulated instant ``now``."""
        return ()

    def _anomaly(self, at: float, severity: str, *, kind: Optional[str]
                 = None, iteration: int = -1, window: float = 0.0,
                 **evidence) -> AnomalyDetected:
        """Build a canonically ordered anomaly event.

        Leave ``iteration`` at -1 unless the anomaly is about a round
        other than the open one: the watchdog stamps the open round.
        """
        return AnomalyDetected(
            at=at, iteration=iteration, kind=kind or self.kind,
            severity=severity, detector=type(self).__name__,
            window=float(window),
            evidence=tuple(sorted(evidence.items())),
        )


class RetryStormDetector(Detector):
    """Fault-recovery pressure: abort/exhaustion rate spike.

    Keeps the last ``2 * window`` seconds of
    ``RetryExhausted``/``TransferAborted`` timestamps; fires when the
    current window holds at least ``min_events`` events *and* at least
    ``storm_factor`` times the preceding window's count (an empty
    baseline makes any ``min_events`` burst a storm).  Severity is
    ``critical`` when a retry budget actually ran out inside the
    window, ``warning`` for aborts that retries may still ride out.
    Re-arms when the windowed count falls back below ``min_events``.
    """

    kind = "retry_storm"
    event_types = (RetryExhausted, TransferAborted)

    def __init__(self, window: float = 60.0, min_events: int = 3,
                 storm_factor: float = 4.0):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)
        self.min_events = int(min_events)
        self.storm_factor = float(storm_factor)
        #: (at, was a RetryExhausted) for the trailing two windows.
        self._times: Deque[Tuple[float, bool]] = deque()
        self._armed = True

    def _prune(self, now: float) -> None:
        horizon = now - 2.0 * self.window
        while self._times and self._times[0][0] < horizon:
            self._times.popleft()

    def _counts(self, now: float) -> Tuple[int, int, int]:
        """(current-window total, exhausted in window, baseline)."""
        edge = now - self.window
        current = exhausted = 0
        for at, was_exhausted in self._times:
            if at >= edge:
                current += 1
                exhausted += was_exhausted
        return current, exhausted, len(self._times) - current

    def observe(self, event):
        now = event.at
        self._times.append((now, isinstance(event, RetryExhausted)))
        self._prune(now)
        current, exhausted, baseline = self._counts(now)
        if not self._armed:
            return ()
        if current < self.min_events:
            return ()
        if current < self.storm_factor * baseline:
            return ()
        self._armed = False
        return (self._anomaly(
            now, "critical" if exhausted else "warning",
            window=self.window, events_in_window=current,
            retry_exhausted=exhausted, baseline_events=baseline,
            storm_factor=self.storm_factor,
        ),)

    def on_tick(self, now):
        if not self._armed:
            self._prune(now)
            current, _, _ = self._counts(now)
            if current < self.min_events:
                self._armed = True
        return ()


class ThroughputCollapseDetector(Detector):
    """Registrations dried up mid-round.

    Two triggers, both scoped to the currently open round and both
    requiring an outstanding shortfall (``observed < expected``; the
    detector disarms the moment the round's expected registration count
    is reached, so bursty-but-complete rounds never alarm):

    - *gap* (``warning``): the time since the round's last
      ``GradientRegistered`` exceeds ``gap_factor`` times the trailing
      median inter-registration gap (floored at ``min_gap``; needs
      ``warmup_gaps`` samples, so the very first registrations cannot
      trip it).
    - *deadline* (``critical``): the round's ``t_train`` deadline
      passed with registrations still missing.

    ``expected_per_iteration`` is trainers x partitions
    (:meth:`AnomalyWatchdog.for_session` wires it); without it the
    detector is inert.
    """

    kind = "throughput_collapse"
    event_types = (IterationStarted, IterationFinished,
                   GradientRegistered)

    def __init__(self, expected_per_iteration: Optional[int] = None,
                 min_gap: float = 30.0, gap_factor: float = 8.0,
                 warmup_gaps: int = 4, gap_history: int = 64):
        self.expected_per_iteration = expected_per_iteration
        self.min_gap = float(min_gap)
        self.gap_factor = float(gap_factor)
        self.warmup_gaps = int(warmup_gaps)
        #: Inter-registration gaps, across rounds (the trailing floor).
        self._gaps: Deque[float] = deque(maxlen=int(gap_history))
        self._open = False
        self._fired = False
        self._started_at = 0.0
        self._t_train: Optional[float] = None
        self._observed = 0
        self._last_at: Optional[float] = None

    def observe(self, event):
        if isinstance(event, IterationStarted):
            self._open = True
            self._fired = False
            self._started_at = event.at
            self._t_train = event.t_train
            self._observed = 0
            self._last_at = None
        elif isinstance(event, IterationFinished):
            self._open = False
        elif isinstance(event, GradientRegistered) and self._open:
            if self._last_at is not None:
                self._gaps.append(event.at - self._last_at)
            self._last_at = event.at
            self._observed += 1
        return ()

    def on_tick(self, now):
        expected = self.expected_per_iteration
        if (expected is None or not self._open or self._fired
                or self._observed >= expected):
            return ()
        if (self._last_at is not None
                and len(self._gaps) >= self.warmup_gaps):
            floor = max(self.min_gap,
                        self.gap_factor * statistics.median(self._gaps))
            gap = now - self._last_at
            if gap > floor:
                self._fired = True
                return (self._anomaly(
                    now, "warning", window=floor,
                    observed=self._observed, expected=expected, gap=gap,
                    median_gap=statistics.median(self._gaps),
                    last_registration_at=self._last_at,
                ),)
        if self._t_train is not None and now > self._t_train:
            self._fired = True
            return (self._anomaly(
                now, "critical", window=self._t_train - self._started_at,
                observed=self._observed, expected=expected,
                t_train=self._t_train,
            ),)
        return ()


class QueueRunawayDetector(Detector):
    """Directory inbox depth crossed its runaway limit.

    Purely tick-driven (no event taps): each tick reads the directory
    endpoint's inbox length — the same probe
    :class:`~repro.obs.metrics.ResourceSampler` samples into
    ``directory.queue.depth`` — and fires ``critical`` above
    ``queue_limit``.  Re-arms once the queue drains to half the limit,
    so one sustained overload produces one anomaly.  Inert without a
    directory.
    """

    kind = "queue_runaway"

    def __init__(self, directory=None, queue_limit: int = 64):
        self.directory = directory
        self.queue_limit = int(queue_limit)
        self._armed = True

    def _depth(self) -> int:
        return self.directory.inbox_depth()

    def on_tick(self, now):
        if self.directory is None:
            return ()
        depth = self._depth()
        if self._armed and depth > self.queue_limit:
            self._armed = False
            return (self._anomaly(
                now, "critical", depth=depth,
                queue_limit=self.queue_limit,
            ),)
        if not self._armed and depth <= self.queue_limit // 2:
            self._armed = True
        return ()


class SimStallDetector(Detector):
    """A round is still open well past its sync deadline.

    Healthy rounds end at or before ``t_sync`` (the session's driver
    joins every participant by then); a round that is *still running*
    ``stall_factor`` of its own span past ``t_sync`` means the
    simulation is livelocked in sub-deadline wakeups — the failure mode
    of the sub-ulp bandwidth livelock — or a participant process leaked
    past the barrier.  Fires ``critical`` once per round.
    """

    kind = "sim_stall"
    event_types = (IterationStarted, IterationFinished)

    def __init__(self, stall_factor: float = 0.25):
        self.stall_factor = float(stall_factor)
        self._open = False
        self._fired = False
        self._started_at = 0.0
        self._t_sync: Optional[float] = None

    def observe(self, event):
        if isinstance(event, IterationStarted):
            self._open = True
            self._fired = False
            self._started_at = event.at
            self._t_sync = event.t_sync
        elif isinstance(event, IterationFinished):
            self._open = False
        return ()

    def on_tick(self, now):
        if not self._open or self._fired or self._t_sync is None:
            return ()
        margin = self.stall_factor * max(self._t_sync - self._started_at,
                                         0.0)
        if now <= self._t_sync + margin:
            return ()
        self._fired = True
        return (self._anomaly(
            now, "critical", window=margin, t_sync=self._t_sync,
            overrun=now - self._t_sync,
        ),)


class ConvergenceDetector(Detector):
    """Convergence telemetry: per-round loss trajectory watchdog.

    Folds :class:`TrainingEvaluated` into a per-round mean loss
    (closed out on ``IterationFinished``) and keeps the trajectory in
    :attr:`losses`.  Fires ``divergence`` (``critical``) when the round
    mean goes non-finite or exceeds ``divergence_factor`` times the
    best mean seen (plus ``atol``, which keeps exactly-zero synthetic
    losses quiet), and ``convergence_stall`` (``warning``) after
    ``patience`` consecutive rounds without a relative improvement of
    ``min_improvement`` over the best.
    """

    kind = "convergence_stall"
    event_types = (TrainingEvaluated, IterationFinished)

    def __init__(self, patience: int = 5, min_improvement: float = 1e-3,
                 divergence_factor: float = 2.0, atol: float = 1e-6):
        self.patience = int(patience)
        self.min_improvement = float(min_improvement)
        self.divergence_factor = float(divergence_factor)
        self.atol = float(atol)
        #: Closed rounds' ``(iteration, mean loss)`` trajectory.
        self.losses: List[Tuple[int, float]] = []
        self._sums: Dict[int, Tuple[float, int]] = {}
        self._best: Optional[float] = None
        self._since_improvement = 0

    def observe(self, event):
        if isinstance(event, TrainingEvaluated):
            total, count = self._sums.get(event.iteration, (0.0, 0))
            self._sums[event.iteration] = (total + event.loss, count + 1)
            return ()
        if not isinstance(event, IterationFinished):
            return ()
        total, count = self._sums.pop(event.iteration, (0.0, 0))
        if count == 0:
            return ()  # nobody evaluated this round
        mean = total / count
        self.losses.append((event.iteration, mean))
        anomalies = []
        finite = mean == mean and mean not in (float("inf"),
                                               float("-inf"))
        best = self._best
        if not finite or (best is not None
                          and mean > self.divergence_factor * best
                          + self.atol):
            anomalies.append(self._anomaly(
                event.at, "critical", kind="divergence",
                iteration=event.iteration, loss=mean,
                best=best if best is not None else mean,
                divergence_factor=self.divergence_factor,
            ))
        if finite:
            improvement_floor = (self.atol if best is None else
                                 max(self.min_improvement * abs(best),
                                     self.atol))
            if best is None or mean < best - improvement_floor:
                self._best = mean if best is None else min(best, mean)
                self._since_improvement = 0
            else:
                self._best = mean if best is None else min(best, mean)
                self._since_improvement += 1
                if self._since_improvement >= self.patience:
                    self._since_improvement = 0  # re-arm
                    anomalies.append(self._anomaly(
                        event.at, "warning",
                        kind="convergence_stall",
                        iteration=event.iteration, loss=mean,
                        best=self._best,
                        rounds_without_improvement=self.patience,
                    ))
        return anomalies


def default_detectors(directory=None,
                      expected_per_iteration: Optional[int] = None
                      ) -> List[Detector]:
    """The stock detector set, wired to whatever substrate is given."""
    return [
        RetryStormDetector(),
        ThroughputCollapseDetector(
            expected_per_iteration=expected_per_iteration),
        QueueRunawayDetector(directory=directory),
        SimStallDetector(),
        ConvergenceDetector(),
    ]


class AnomalyWatchdog(SimTicker):
    """Hosts detectors over a bus; publishes classified anomalies.

    Subscribes each detector's exact event taps (never the wildcard —
    the hot path must stay cheap) and ticks on the sim clock (a
    :class:`~repro.obs.metrics.SimTicker`, like the resource sampler)
    for absence-of-events conditions.  Every anomaly a
    detector yields is appended to :attr:`anomalies` and published on
    the bus, where counters, forensics, traces and progress pick it up.

    Construct with ``sim=None`` for a pure event-driven watchdog (unit
    tests); :meth:`for_session` wires a live session end to end.  Call
    :meth:`finalize` before draining the simulator with ``sim.run()``
    (same contract as the resource sampler's ``stop``).
    """

    def __init__(self, bus, detectors: Optional[List[Detector]] = None,
                 sim=None, interval: float = 5.0, wall_clock=None,
                 wall_stall_seconds: float = 300.0,
                 autostart: bool = True):
        super().__init__(sim, interval, self._on_tick)
        self.bus = bus
        self.detectors = (detectors if detectors is not None
                          else default_detectors())
        self.wall_clock = wall_clock or SYSTEM_WALL_CLOCK
        self.wall_stall_seconds = float(wall_stall_seconds)
        #: Every anomaly published, in publish order.
        self.anomalies: List[AnomalyDetected] = []
        #: Host-side livelock observations (never published; see
        #: :meth:`check_wall`).
        self.wall_stalls: List[dict] = []
        self.ticks = 0
        self._last_wall: Optional[float] = None
        self._last_sim: Optional[float] = None
        #: The open iteration (-1 between rounds), tracked here once and
        #: stamped on every anomaly a detector left iteration-less.
        self._iteration = -1
        self._taps: Dict[type, List[Detector]] = {
            IterationStarted: [], IterationFinished: [],
        }
        for detector in self.detectors:
            for event_type in detector.event_types:
                self._taps.setdefault(event_type, []).append(detector)
        self._subscription = bus.subscribe(self._handle, *self._taps)
        if autostart and sim is not None:
            self.start()

    @classmethod
    def for_session(cls, session, detectors: Optional[List[Detector]]
                    = None, interval: float = 5.0,
                    **kwargs) -> "AnomalyWatchdog":
        """Wire a watchdog to everything an ``FLSession`` owns."""
        if detectors is None:
            expected = (len(session.trainers)
                        * session.config.num_partitions)
            detectors = default_detectors(
                directory=session.directory,
                expected_per_iteration=expected or None,
            )
        return cls(session.sim.bus, detectors=detectors,
                   sim=session.sim, interval=interval, **kwargs)

    # -- lifecycle ---------------------------------------------------------------

    def finalize(self) -> List[AnomalyDetected]:
        """Detach: stop ticking and unsubscribe (idempotent).

        Returns the full anomaly list for convenience.
        """
        self.stop()
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None
        return self.anomalies

    close = finalize

    def __enter__(self) -> "AnomalyWatchdog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finalize()

    # -- reporting ---------------------------------------------------------------

    def kinds(self) -> List[str]:
        """Sorted distinct anomaly kinds observed so far."""
        return sorted({a.kind for a in self.anomalies})

    def summary(self) -> Dict[str, int]:
        """Anomaly count per kind (sorted by kind)."""
        counts: Dict[str, int] = {}
        for anomaly in self.anomalies:
            counts[anomaly.kind] = counts.get(anomaly.kind, 0) + 1
        return dict(sorted(counts.items()))

    # -- the hot paths -----------------------------------------------------------

    def _publish(self, anomaly: AnomalyDetected) -> None:
        if anomaly.iteration == -1 and self._iteration != -1:
            anomaly = dataclasses.replace(anomaly,
                                          iteration=self._iteration)
        self.anomalies.append(anomaly)
        self.bus.publish(anomaly)

    def _handle(self, event) -> None:
        kind = type(event)
        if kind is IterationStarted:
            self._iteration = event.iteration
        for detector in self._taps[kind]:
            for anomaly in detector.observe(event):
                self._publish(anomaly)
        if kind is IterationFinished:
            self._iteration = -1

    def _on_tick(self) -> None:
        self.ticks += 1
        now = self.sim.now
        for detector in self.detectors:
            for anomaly in detector.on_tick(now):
                self._publish(anomaly)
        self.check_wall()

    # -- the host-side livelock probe --------------------------------------------

    def check_wall(self) -> Optional[dict]:
        """Record a wall-clock stall: wall advances, sim does not.

        Sim-driven ticks cannot observe this themselves (a stuck sim
        clock stops the tick loop too), so the host loop — a progress
        heartbeat, a CLI poll — calls this from wall-paced code.  The
        observation stays local (:attr:`wall_stalls`) and is surfaced
        through the heartbeat only: publishing a wall-time-derived
        event would make replays diverge.
        """
        wall = self.wall_clock.seconds()
        sim_now = self.sim.now if self.sim is not None else 0.0
        if self._last_wall is None or sim_now > self._last_sim:
            self._last_wall, self._last_sim = wall, sim_now
            return None
        elapsed = wall - self._last_wall
        if elapsed <= self.wall_stall_seconds:
            return None
        self._last_wall = wall  # re-arm for the next stall window
        entry = {
            "kind": "wall_stall",
            "sim_now": sim_now,
            "wall_elapsed": elapsed,
        }
        self.wall_stalls.append(entry)
        return entry
