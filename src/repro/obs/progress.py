"""Live run progress: a heartbeat over the event bus.

At figure scale a run finishes before you wonder whether it is alive;
at hundreds of exact trainers it does not.  :class:`ProgressReporter` is an
ordinary (wildcard) bus subscriber that tracks the run's position —
iteration, simulated clock, events seen — and periodically emits a
*heartbeat* record to stderr and, optionally, a JSONL file:

.. code-block:: json

    {"seq": 3, "wall_seconds": 4.71,
     "iteration": 1, "sim_seconds": 7205.0, "events": 182344,
     "events_per_s": 40211.5, "telemetry_bytes": 801792,
     "peak_telemetry_bytes": 811264, "series_retained": 2048,
     "sketch_histograms": 2, "recorder_occupancy": 512}

``seq``/``wall_seconds``/``iteration``/``sim_seconds``/
``events``/``events_per_s`` are always present; the telemetry and
recorder fields appear when a :class:`~repro.obs.metrics.MetricsRegistry`
or :class:`~repro.obs.forensics.FlightRecorder` is attached.  The
schema is documented in ``docs/OBSERVABILITY.md`` and consumed by
``python -m repro.cli status``.

Heartbeats are paced by *wall* time (one per second), so the
reporter costs one counter increment and one clock read per event and
never perturbs the simulated clock — determinism contracts are
untouched: the reporter writes *about* the run, never into it.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, IO, List, Optional, Union

from .bus import EventBus
from .events import IterationFinished, IterationStarted
from .profiling import SYSTEM_WALL_CLOCK, WallClock

__all__ = ["ProgressReporter", "read_progress", "format_heartbeat"]

#: Minimum *wall* seconds between heartbeats.
HEARTBEAT_INTERVAL = 1.0


def format_heartbeat(record: Dict[str, object]) -> str:
    """One human-readable line for a heartbeat record."""
    parts = [
        "[run]",
        f"iter={record.get('iteration', -1)}",
        f"sim={record.get('sim_seconds', 0.0):.1f}s",
        f"events={record.get('events', 0)}",
        f"rate={record.get('events_per_s', 0.0):.0f}/s",
    ]
    peak = record.get("peak_telemetry_bytes")
    if peak is not None:
        parts.append(f"telemetry_peak={peak / 1024.0:.1f}KiB")
    sketches = record.get("sketch_histograms")
    if sketches:
        parts.append(f"sketches={sketches}")
    anomalies = record.get("anomalies")
    if anomalies:
        parts.append(f"anomalies={anomalies}")
    parts.append(f"wall={record.get('wall_seconds', 0.0):.1f}s")
    return " ".join(parts)


class ProgressReporter:
    """Heartbeat subscriber reporting liveness, rates and obs cost.

    Parameters
    ----------
    bus:
        The bus to watch (wildcard subscription).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; adds
        telemetry-memory and sketch/ring occupancy fields.
    recorder:
        Optional :class:`~repro.obs.forensics.FlightRecorder`; adds its
        ring occupancy.
    watchdog:
        Optional :class:`~repro.obs.anomaly.AnomalyWatchdog`; adds the
        running anomaly count (and kinds once any fired).
    stream:
        Human-readable heartbeat destination (default ``sys.stderr``;
        pass ``None`` to disable).
    jsonl:
        Optional path or writable stream receiving one JSON object per
        heartbeat (paths are opened in append mode — a sweep's points
        share one file).
    clock:
        The :class:`~repro.obs.profiling.WallClock` heartbeats are
        paced by; injectable for tests.
    """

    def __init__(self, bus: EventBus,
                 registry=None, recorder=None, watchdog=None,
                 stream: Optional[IO[str]] = sys.stderr,
                 jsonl: Union[str, "os.PathLike[str]", IO[str], None] = None,
                 clock: WallClock = SYSTEM_WALL_CLOCK):
        self.registry = registry
        self.recorder = recorder
        self.watchdog = watchdog
        self.stream = stream
        self._clock = clock.seconds
        if jsonl is None or hasattr(jsonl, "write"):
            self._jsonl: Optional[IO[str]] = jsonl  # type: ignore[assignment]
            self._owns_jsonl = False
        else:
            self._jsonl = open(os.fspath(jsonl), "a", encoding="utf-8")
            self._owns_jsonl = True
        self.events_seen = 0
        self.heartbeats = 0
        self.iteration = -1
        self.sim_seconds = 0.0
        self._started = self._clock()
        self._last_beat = self._started
        self._last_events = 0
        self._subscription = bus.subscribe(self._handle)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Emit a final heartbeat, unsubscribe, release the JSONL file."""
        self._subscription.cancel()
        self.heartbeat(force=True)
        if self._owns_jsonl and self._jsonl is not None \
                and not self._jsonl.closed:
            self._jsonl.close()

    def __enter__(self) -> "ProgressReporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- event handling ----------------------------------------------------------

    def _handle(self, event) -> None:
        self.events_seen += 1
        kind = type(event)
        if kind is IterationStarted or kind is IterationFinished:
            self.iteration = event.iteration
        at = getattr(event, "at", None)
        if at is not None and at > self.sim_seconds:
            self.sim_seconds = at
        if self._clock() - self._last_beat >= HEARTBEAT_INTERVAL:
            self.heartbeat()

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The current heartbeat record (without emitting it)."""
        now = self._clock()
        elapsed = max(now - self._last_beat, 1e-9)
        record: Dict[str, object] = {
            "seq": self.heartbeats,
            "wall_seconds": now - self._started,
            "iteration": self.iteration,
            "sim_seconds": self.sim_seconds,
            "events": self.events_seen,
            "events_per_s":
                (self.events_seen - self._last_events) / elapsed,
        }
        registry = self.registry
        if registry is not None:
            record["telemetry_bytes"] = registry.telemetry_bytes()
            record["peak_telemetry_bytes"] = registry.peak_telemetry_bytes
            record["events_observed"] = registry.events_observed
            record["series_retained"] = sum(
                series.retained for series in registry.series())
            record["sketch_histograms"] = registry.sketch_histograms()
        if self.recorder is not None:
            record["recorder_occupancy"] = self.recorder.occupancy
        watchdog = self.watchdog
        if watchdog is not None:
            record["anomalies"] = len(watchdog.anomalies)
            kinds = watchdog.kinds()
            if kinds:
                record["anomaly_kinds"] = kinds
        return record

    def heartbeat(self, force: bool = False) -> Optional[Dict[str, object]]:
        """Emit one heartbeat (rate-limited unless ``force``)."""
        now = self._clock()
        if not force and now - self._last_beat < HEARTBEAT_INTERVAL:
            return None
        record = self.snapshot()
        self._last_beat = now
        self._last_events = self.events_seen
        self.heartbeats += 1
        if self.stream is not None:
            print(format_heartbeat(record), file=self.stream)
        if self._jsonl is not None:
            self._jsonl.write(json.dumps(record) + "\n")
            self._jsonl.flush()
        return record


def read_progress(
        source: Union[str, "os.PathLike[str]", IO[str]]
) -> List[Dict[str, object]]:
    """Parse a progress JSONL file into heartbeat records.

    Tolerates a truncated final line (the run may still be writing),
    which is what lets ``cli status`` watch a live run.  Any earlier
    line that is not a JSON object raises :class:`ValueError` naming
    its line number.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as handle:
            text = handle.read()
    lines = text.splitlines()
    records: List[Dict[str, object]] = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if number == len(lines):
                break  # mid-write tail of a live run
            raise ValueError(f"line {number} is not JSON ({error})") \
                from None
        if not isinstance(record, dict):
            raise ValueError(f"line {number} is not a JSON object")
        records.append(record)
    return records
