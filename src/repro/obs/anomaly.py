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

#: ``retry_storm``: trailing window (sim s), the events it must hold,
#: and the multiple of the preceding window's count that makes a storm.
RETRY_STORM_WINDOW = 60.0
RETRY_STORM_MIN_EVENTS = 3
RETRY_STORM_FACTOR = 4.0
#: ``throughput_collapse``: gap floor (sim s), multiple of the trailing
#: median gap, gaps needed before the gap trigger arms, gaps kept.
COLLAPSE_MIN_GAP = 30.0
COLLAPSE_GAP_FACTOR = 8.0
COLLAPSE_WARMUP_GAPS = 4
COLLAPSE_GAP_HISTORY = 64
#: ``queue_runaway``: directory inbox depth that fires.
QUEUE_LIMIT = 64
#: ``sim_stall``: overrun past ``t_sync``, as a share of the round span.
STALL_FACTOR = 0.25
#: ``divergence`` / ``convergence_stall``: rounds without improvement,
#: the relative improvement that counts, the multiple of the best mean
#: loss that diverges, and the absolute tolerance for zero losses.
CONVERGENCE_PATIENCE = 5
CONVERGENCE_MIN_IMPROVEMENT = 1e-3
DIVERGENCE_FACTOR = 2.0
CONVERGENCE_ATOL = 1e-6
#: Watchdog tick cadence (sim s) and the wall seconds without simulated
#: progress that :meth:`AnomalyWatchdog.check_wall` records as a stall.
WATCHDOG_INTERVAL = 5.0
WALL_STALL_SECONDS = 300.0

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

    Keeps the last two :data:`RETRY_STORM_WINDOW` seconds of
    ``RetryExhausted``/``TransferAborted`` timestamps; fires when the
    current window holds at least :data:`RETRY_STORM_MIN_EVENTS` events
    *and* at least :data:`RETRY_STORM_FACTOR` times the preceding
    window's count (an empty baseline makes any such burst a storm).
    Severity is ``critical`` when a retry budget actually ran out inside
    the window, ``warning`` for aborts that retries may still ride out.
    Re-arms when the windowed count falls back below the minimum.
    """

    kind = "retry_storm"
    event_types = (RetryExhausted, TransferAborted)

    def __init__(self):
        #: (at, was a RetryExhausted) for the trailing two windows.
        self._times: Deque[Tuple[float, bool]] = deque()
        self._armed = True

    def _prune(self, now: float) -> None:
        horizon = now - 2.0 * RETRY_STORM_WINDOW
        while self._times and self._times[0][0] < horizon:
            self._times.popleft()

    def _counts(self, now: float) -> Tuple[int, int, int]:
        """(current-window total, exhausted in window, baseline)."""
        edge = now - RETRY_STORM_WINDOW
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
        if current < RETRY_STORM_MIN_EVENTS:
            return ()
        if current < RETRY_STORM_FACTOR * baseline:
            return ()
        self._armed = False
        return (self._anomaly(
            now, "critical" if exhausted else "warning",
            window=RETRY_STORM_WINDOW, events_in_window=current,
            retry_exhausted=exhausted, baseline_events=baseline,
            storm_factor=RETRY_STORM_FACTOR,
        ),)

    def on_tick(self, now):
        if not self._armed:
            self._prune(now)
            current, _, _ = self._counts(now)
            if current < RETRY_STORM_MIN_EVENTS:
                self._armed = True
        return ()


class ThroughputCollapseDetector(Detector):
    """Registrations dried up mid-round.

    Two triggers, both scoped to the currently open round and both
    requiring an outstanding shortfall (``observed < expected``; the
    detector disarms the moment the round's expected registration count
    is reached, so bursty-but-complete rounds never alarm):

    - *gap* (``warning``): the time since the round's last
      ``GradientRegistered`` exceeds :data:`COLLAPSE_GAP_FACTOR` times
      the trailing median inter-registration gap (floored at
      :data:`COLLAPSE_MIN_GAP`; needs :data:`COLLAPSE_WARMUP_GAPS`
      samples, so the very first registrations cannot trip it).
    - *deadline* (``critical``): the round's ``t_train`` deadline
      passed with registrations still missing.

    ``expected_per_iteration`` is trainers x partitions
    (:meth:`AnomalyWatchdog.for_session` wires it); without it the
    detector is inert.
    """

    kind = "throughput_collapse"
    event_types = (IterationStarted, IterationFinished,
                   GradientRegistered)

    def __init__(self, expected_per_iteration: Optional[int] = None):
        self.expected_per_iteration = expected_per_iteration
        #: Inter-registration gaps, across rounds (the trailing floor).
        self._gaps: Deque[float] = deque(maxlen=COLLAPSE_GAP_HISTORY)
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
                and len(self._gaps) >= COLLAPSE_WARMUP_GAPS):
            floor = max(COLLAPSE_MIN_GAP,
                        COLLAPSE_GAP_FACTOR * statistics.median(self._gaps))
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
    :data:`QUEUE_LIMIT`.  Re-arms once the queue drains to half the limit,
    so one sustained overload produces one anomaly.  Inert without a
    directory.
    """

    kind = "queue_runaway"

    def __init__(self, directory=None):
        self.directory = directory
        self._armed = True

    def _depth(self) -> int:
        return self.directory.inbox_depth()

    def on_tick(self, now):
        if self.directory is None:
            return ()
        depth = self._depth()
        if self._armed and depth > QUEUE_LIMIT:
            self._armed = False
            return (self._anomaly(
                now, "critical", depth=depth, queue_limit=QUEUE_LIMIT,
            ),)
        if not self._armed and depth <= QUEUE_LIMIT // 2:
            self._armed = True
        return ()


class SimStallDetector(Detector):
    """A round is still open well past its sync deadline.

    Healthy rounds end at or before ``t_sync`` (the session's driver
    joins every participant by then); a round that is *still running*
    :data:`STALL_FACTOR` of its own span past ``t_sync`` means the
    simulation is livelocked in sub-deadline wakeups — the failure mode
    of the sub-ulp bandwidth livelock — or a participant process leaked
    past the barrier.  Fires ``critical`` once per round.
    """

    kind = "sim_stall"
    event_types = (IterationStarted, IterationFinished)

    def __init__(self):
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
        margin = STALL_FACTOR * max(self._t_sync - self._started_at, 0.0)
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
    mean goes non-finite or exceeds :data:`DIVERGENCE_FACTOR` times the
    best mean seen (plus :data:`CONVERGENCE_ATOL`, which keeps
    exactly-zero synthetic losses quiet), and ``convergence_stall``
    (``warning``) after :data:`CONVERGENCE_PATIENCE` consecutive rounds
    without a relative improvement of
    :data:`CONVERGENCE_MIN_IMPROVEMENT` over the best.
    """

    kind = "convergence_stall"
    event_types = (TrainingEvaluated, IterationFinished)

    def __init__(self):
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
                          and mean > DIVERGENCE_FACTOR * best
                          + CONVERGENCE_ATOL):
            anomalies.append(self._anomaly(
                event.at, "critical", kind="divergence",
                iteration=event.iteration, loss=mean,
                best=best if best is not None else mean,
                divergence_factor=DIVERGENCE_FACTOR,
            ))
        if finite:
            improvement_floor = (
                CONVERGENCE_ATOL if best is None else
                max(CONVERGENCE_MIN_IMPROVEMENT * abs(best),
                    CONVERGENCE_ATOL))
            if best is None or mean < best - improvement_floor:
                self._best = mean if best is None else min(best, mean)
                self._since_improvement = 0
            else:
                self._best = mean if best is None else min(best, mean)
                self._since_improvement += 1
                if self._since_improvement >= CONVERGENCE_PATIENCE:
                    self._since_improvement = 0  # re-arm
                    anomalies.append(self._anomaly(
                        event.at, "warning",
                        kind="convergence_stall",
                        iteration=event.iteration, loss=mean,
                        best=self._best,
                        rounds_without_improvement=CONVERGENCE_PATIENCE,
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
    the hot path must stay cheap) and ticks every
    :data:`WATCHDOG_INTERVAL` on the sim clock (a
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
                 sim=None, wall_clock=None):
        super().__init__(sim, WATCHDOG_INTERVAL, self._on_tick)
        self.bus = bus
        self.detectors = (detectors if detectors is not None
                          else default_detectors())
        self.wall_clock = wall_clock or SYSTEM_WALL_CLOCK
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
        self.start()

    @classmethod
    def for_session(cls, session, wall_clock=None) -> "AnomalyWatchdog":
        """Wire a watchdog to everything an ``FLSession`` owns."""
        expected = len(session.trainers) * session.config.num_partitions
        detectors = default_detectors(
            directory=session.directory,
            expected_per_iteration=expected or None,
        )
        return cls(session.sim.bus, detectors=detectors, sim=session.sim,
                   wall_clock=wall_clock)

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
        if elapsed <= WALL_STALL_SECONDS:
            return None
        self._last_wall = wall  # re-arm for the next stall window
        entry = {
            "kind": "wall_stall",
            "sim_now": sim_now,
            "wall_elapsed": elapsed,
        }
        self.wall_stalls.append(entry)
        return entry
