"""Online anomaly watchdog: pluggable detectors over the event bus.

The paper's efficiency claims assume runs do not silently degrade; on
a long run nobody is reading Perfetto traces live.  This module turns
the event bus into the "central vantage point" the decentralized
protocol itself lacks: an :class:`AnomalyWatchdog` hosts small online
detectors that watch the typed event stream plus a periodic sim-clock
tick, and publish a typed
:class:`~repro.obs.events.AnomalyDetected` back onto the bus whenever a
degradation is classified.  Downstream the anomaly is just another
event: :class:`~repro.obs.counters.CountersRegistry` counts it into
``obs.anomaly.*`` manifest gauges, the
:class:`~repro.obs.forensics.FlightRecorder` treats it as a seal
trigger (anomalies auto-produce incident bundles), and Perfetto
timelines show instant markers.

Detector catalog (``docs/OBSERVABILITY.md`` documents evidence
schemas):

===================== ===========================================
kind                  fired when
===================== ===========================================
``retry_storm``       RetryExhausted/TransferAborted rate spikes
                      against the preceding trailing window
``throughput_collapse`` registrations stall mid-round (trailing-
                      median gap floor) or miss the round deadline
===================== ===========================================

A kind stays in the catalog only while a shipped run fires it: CI's
chaos job and the churn bundle expect both (``tests/test_reach.py``).

Contracts, in order of importance:

- **Sim-clock control only.**  Detection windows, tick cadence and
  every threshold read the simulated clock; nothing here reads the
  wall clock, so no anomaly can differ between replays.
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

import statistics
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from .events import (
    AnomalyDetected,
    GradientRegistered,
    IterationFinished,
    IterationStarted,
    RetryExhausted,
    TransferAborted,
)

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
#: Watchdog tick cadence (sim s).
WATCHDOG_INTERVAL = 5.0

#: Every anomaly ``kind`` the stock detectors can emit.
ANOMALY_KINDS = ("retry_storm", "throughput_collapse")


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

    def _anomaly(self, at: float, severity: str, *, window: float = 0.0,
                 **evidence) -> AnomalyDetected:
        """Build a canonically ordered anomaly event.

        Its ``iteration`` is -1: the watchdog stamps the open round.
        """
        return AnomalyDetected(
            at=at, iteration=-1, kind=self.kind,
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


def default_detectors(expected_per_iteration: Optional[int] = None
                      ) -> List[Detector]:
    """The stock detector set, one per :data:`ANOMALY_KINDS` entry."""
    return [
        RetryStormDetector(),
        ThroughputCollapseDetector(
            expected_per_iteration=expected_per_iteration),
    ]


class SimTicker:
    """The sim-clock tick loop: ``tick()`` runs every ``interval``
    simulated seconds between :meth:`start` and :meth:`stop`.

    The pending wakeup is kept and cancelled on stop (an O(1)
    tombstone), so a stopped ticker leaves nothing on the queue.  Stop
    it before draining the simulator with ``sim.run()`` or the
    re-arming tick keeps the queue alive forever;
    ``session.run(...)`` / ``run_iteration()`` use ``run_until`` and
    are safe with a live ticker.  ``sim=None`` never ticks.
    """

    def __init__(self, sim, interval: float, tick):
        self.sim = sim
        self.interval = interval
        self._tick = tick
        self._wakeup = None

    def start(self) -> None:
        """Begin ticking; a no-op when already active."""
        if self._wakeup is None and self.sim is not None:
            self._arm()

    def stop(self) -> None:
        """Stop ticking; safe to call more than once."""
        wakeup, self._wakeup = self._wakeup, None
        if wakeup is not None:
            wakeup.cancel()

    def _arm(self) -> None:
        self._wakeup = self.sim.timeout(self.interval)
        self._wakeup._add_callback(self._fire)

    def _fire(self, wakeup) -> None:
        self._tick()
        if self._wakeup is wakeup:  # the tick did not stop or restart us
            self._arm()


class AnomalyWatchdog(SimTicker):
    """Hosts detectors over a bus; publishes classified anomalies.

    Subscribes each detector's exact event taps (never the wildcard —
    the hot path must stay cheap) and ticks every
    :data:`WATCHDOG_INTERVAL` on the sim clock (a :class:`SimTicker`,
    the only observer that schedules kernel events) for
    absence-of-events conditions.  Every anomaly a
    detector yields is appended to :attr:`anomalies` and published on
    the bus, where counters, forensics, traces and progress pick it up.

    Construct with ``sim=None`` for a pure event-driven watchdog (unit
    tests); :meth:`for_session` wires a live session end to end.  Call
    :meth:`finalize` before draining the simulator with ``sim.run()``
    (the :class:`SimTicker` contract).
    """

    def __init__(self, bus, detectors: Optional[List[Detector]] = None,
                 sim=None):
        super().__init__(sim, WATCHDOG_INTERVAL, self._on_tick)
        self.bus = bus
        self.detectors = (detectors if detectors is not None
                          else default_detectors())
        #: Every anomaly published, in publish order.
        self.anomalies: List[AnomalyDetected] = []
        self.ticks = 0
        #: The open iteration (-1 between rounds), tracked here once and
        #: stamped on every anomaly.
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
    def for_session(cls, session) -> "AnomalyWatchdog":
        """Wire a watchdog to an ``FLSession``'s bus, clock and
        expected registrations per round."""
        expected = len(session.trainers) * session.config.num_partitions
        detectors = default_detectors(expected_per_iteration=expected or None)
        return cls(session.sim.bus, detectors=detectors, sim=session.sim)

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
        anomaly = anomaly._replace(iteration=self._iteration)
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
