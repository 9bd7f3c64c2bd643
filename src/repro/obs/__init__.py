"""Observability: the typed event bus every layer reports into.

This package is the repo's instrumentation spine.  Producers — the
network emulator, the simulated IPFS, the directory service, trainers
and aggregators — publish small typed events
(:mod:`repro.obs.events`) to a per-simulation :class:`EventBus`
(``sim.bus``); consumers subscribe:

- :class:`TelemetryCollector` — rebuilds the paper's per-iteration
  metrics (:class:`~repro.obs.telemetry.IterationMetrics`) from the
  event stream; every session owns one.
- :class:`CountersRegistry` — named counters/gauges (directory load,
  DHT hops, bytes by layer).
- :class:`JsonlTraceExporter` — streams every event to a JSON-lines
  trace file; :func:`~repro.obs.jsonl.read_trace` reads it back.
- :func:`fold_trace` — folds a trace into per-iteration causal span
  trees (:func:`~repro.obs.spans.span_trees`) and renders them as a
  Perfetto timeline; :class:`CriticalPathAnalyzer` decomposes the
  aggregation delay along the slowest chain and ranks stragglers.
- :class:`InvariantMonitors` — online protocol invariants (byte
  conservation, commitment-accumulator consistency, protocol ordering,
  blockstore leaks); violations re-enter the bus as
  :class:`~repro.obs.events.InvariantViolated` events.
- :class:`FlightRecorder` — bounded ring-buffer forensics; seals an
  :class:`IncidentBundle` (event window, span chain, blame report,
  Perfetto slice) on ``VerificationFailed``/``InvariantViolated``/
  ``AnomalyDetected``.  It keeps no commitment ledger: the blame is the
  directory's, carried on the ``VerificationFailed``.

The bus is zero-overhead when unsubscribed: emission sites guard event
construction behind :meth:`EventBus.wants`, so unobserved runs pay one
boolean check per site.  On long, large runs the stack stays bounded:
histograms spill to a :class:`~repro.obs.sketch.QuantileSketch`
and a series is its running digest.
A :class:`HostProfiler` (:mod:`repro.obs.profiling`) attributes
*wall-clock* (host) cost to the ``repro`` package whose functions spent
it — a signal-driven sampler of the main thread's stack, charged on the
benchmark's ``sim`` / ``net`` / ``ipfs`` / ``crypto`` / ``ml`` /
``core`` / ``obs`` / ``faults`` partition, no hook in any layer.  An
:class:`AnomalyWatchdog` (:mod:`repro.obs.anomaly`) hosts online
detectors — retry storms and throughput collapse — that publish typed
:class:`~repro.obs.events.AnomalyDetected` events back onto the bus,
auto-sealing incident bundles and feeding ``obs.anomaly.*`` manifest
gauges.
``python -m repro.cli run --artifacts DIR`` attaches the live ones, in
the one correct order, writes what they saw as one run bundle and
folds the bundle's timeline from its trace; see
``docs/OBSERVABILITY.md``.
"""

from .anomaly import ANOMALY_KINDS, AnomalyWatchdog
from .bus import EventBus
from .counters import CountersRegistry
from .critical_path import CriticalPathAnalyzer
from .forensics import FlightRecorder
from .jsonl import JsonlTraceExporter
from .manifest import (
    ManifestDiff,
    RunManifest,
    compare_manifests,
    config_fingerprint,
)
from .metrics import MetricsRegistry, ResourceSampler
from .monitors import InvariantMonitors
from .perfetto import fold_trace
from .profiling import HostProfile, HostProfiler, SYSTEM_WALL_CLOCK, WallClock
from .telemetry import TelemetryCollector

__all__ = [
    "ANOMALY_KINDS",
    "AnomalyWatchdog",
    "CountersRegistry",
    "CriticalPathAnalyzer",
    "EventBus",
    "FlightRecorder",
    "HostProfile",
    "HostProfiler",
    "InvariantMonitors",
    "JsonlTraceExporter",
    "ManifestDiff",
    "MetricsRegistry",
    "ResourceSampler",
    "RunManifest",
    "SYSTEM_WALL_CLOCK",
    "TelemetryCollector",
    "WallClock",
    "compare_manifests",
    "config_fingerprint",
    "fold_trace",
]
