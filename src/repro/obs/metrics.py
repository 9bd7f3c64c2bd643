"""Aggregated metrics over the event stream: the "shape of the run".

Counters (:mod:`repro.obs.counters`) answer *how much*; this module
answers *how distributed* and *over time*:

- a "histogram" is a :class:`~repro.obs.sketch.QuantileSketch` by
  name: below the exactness threshold p50/p95/p99 are float-equal to
  :func:`repro.analysis.stats.percentile`; above it the sketch bounds
  memory at O(distinct buckets) with a guaranteed relative error.
- :class:`TimeSeries` — a gauge read at round boundaries, optionally
  labelled (``ipfs.blockstore.node.bytes{node="ipfs-0"}``), kept as its
  count/min/max/mean/last digest in running accumulators.
- :class:`MetricsRegistry` — an ordinary bus subscriber deriving
  latency/size histograms from events the producers already publish,
  and accounting its own cost (``events_observed``,
  :meth:`~MetricsRegistry.telemetry_bytes`, ``peak_telemetry_bytes``)
  so run manifests can gate observability regressions.
- :class:`ResourceSampler` — reads blockstore occupancy and stale
  scheduler wakeups into the registry's time series at every round
  boundary.

Metric names extend the :class:`~repro.obs.counters.CountersRegistry`
dotted scheme (``layer.metric``); the stable set is documented in
``docs/OBSERVABILITY.md``.  The zero-subscriber overhead contract is
unchanged: an unobserved run constructs neither a registry nor a
sampler, so it pays exactly the same one-boolean-check per emission
site as before (enforced by ``benchmarks/test_obs_overhead.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .bus import EventBus
from .counters import CountersRegistry
from .events import (
    BlockFetched,
    CommitmentComputed,
    DhtLookup,
    GradientsAggregated,
    IterationFinished,
    IterationStarted,
    SyncPhaseEnded,
    TransferCompleted,
    UpdateRegistered,
    UploadCompleted,
)
from .sketch import DEFAULT_EXACT_THRESHOLD, QuantileSketch

#: Label key/value pairs, kept as a sorted tuple so series hash cleanly.
Labels = Tuple[Tuple[str, str], ...]

#: Memory-model constant (platform-stable, not ``sys.getsizeof``): a
#: series is its accumulators, so it costs the same at any record count.
_SERIES_OVERHEAD = 256


def _freeze_labels(labels: Dict[str, str]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class TimeSeries:
    """A gauge the sampler reads at round boundaries, kept as its
    digest: running count/min/max/mean/last accumulators, no samples."""

    __slots__ = ("name", "labels",
                 "_count", "_total", "_min", "_max", "_last")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._last = 0.0

    def record(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._last = value

    # -- reading -----------------------------------------------------------------

    def digest(self) -> Dict[str, float]:
        """Count/min/max/mean/last digest over every record."""
        if not self._count:
            return {"count": 0}
        return {
            "count": self._count,
            "min": self._min,
            "max": self._max,
            "mean": self._total / self._count,
            "last": self._last,
        }

    def key(self) -> str:
        """Stable display key: ``name{k=v,...}`` (plain name if unlabelled)."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{inner}}}"

    def __repr__(self) -> str:
        return f"<TimeSeries {self.key()} n={self._count}>"


#: The distributions every registry derives from the event stream.
_HISTOGRAM_NAMES = (
    "net.transfer.duration",
    "net.transfer.bytes",
    "dht.lookup.latency",
    "ipfs.fetch.latency",
    "ipfs.block.bytes",
    "protocol.upload.delay",
    "protocol.collect.duration",
    "protocol.publish.duration",
    "protocol.sync.duration",
    "protocol.commit.seconds",
)


class MetricsRegistry:
    """Latency/size histograms and resource series over bus events.

    An ordinary subscriber — attach one to any run::

        metrics = MetricsRegistry(session.sim.bus)
        session.run(rounds=3)
        print(metrics.histogram("net.transfer.duration").summary())

    Owns a :class:`CountersRegistry` on the same bus unless one is
    passed in, so a single ``close()`` detaches *everything* this
    registry attached (the counters-detach regression is pinned by
    ``tests/test_obs_exporters.py``).

    Memory is bounded by construction: histograms spill to sketch mode
    past :data:`~repro.obs.sketch.DEFAULT_EXACT_THRESHOLD` observations
    and a series is its digest, so attaching a registry to a long, large
    run costs O(metrics), not O(events).  The registry also meters itself —
    :attr:`events_observed`, :meth:`telemetry_bytes` and
    :attr:`peak_telemetry_bytes` feed the run manifest's obs-cost gauges.
    """

    def __init__(self, bus: EventBus,
                 counters: Optional[CountersRegistry] = None):
        self._owns_counters = counters is None
        self.counters = counters if counters is not None \
            else CountersRegistry(bus)
        self.events_observed = 0
        #: High-water mark of :meth:`telemetry_bytes`.  Exact: between
        #: spills the modelled footprint only grows, and every spill and
        #: :meth:`close` refresh it first.
        self.peak_telemetry_bytes = 0
        self._histograms: Dict[str, QuantileSketch] = {
            name: QuantileSketch() for name in _HISTOGRAM_NAMES
        }
        self._series: Dict[Tuple[str, Labels], TimeSeries] = {}
        self._dispatch = {
            TransferCompleted: self._on_transfer,
            DhtLookup: self._on_dht_lookup,
            BlockFetched: self._on_block_fetched,
            UploadCompleted: self._on_upload,
            GradientsAggregated: self._on_aggregated,
            UpdateRegistered: self._on_update,
            SyncPhaseEnded: self._on_sync_ended,
            CommitmentComputed: self._on_commitment,
        }
        self._subscription = bus.subscribe(
            self._handle, *self._dispatch.keys()
        )

    def close(self) -> None:
        """Detach every subscription this registry created."""
        self._subscription.cancel()
        if self._owns_counters:
            self.counters.close()
        self.telemetry_bytes()  # final peak refresh

    def __enter__(self) -> "MetricsRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- access ------------------------------------------------------------------

    def histogram(self, name: str) -> QuantileSketch:
        return self._histograms[name]

    def histograms(self) -> Dict[str, QuantileSketch]:
        return dict(self._histograms)

    def timeseries(self, name: str, **labels: str) -> TimeSeries:
        """Get or create the series ``name`` with the given labels."""
        key = (name, _freeze_labels(labels))
        series = self._series.get(key)
        if series is None:
            series = TimeSeries(name, key[1])
            self._series[key] = series
        return series

    def series(self) -> List[TimeSeries]:
        """All recorded series, sorted by display key."""
        return sorted(self._series.values(), key=TimeSeries.key)

    # -- self-accounting ---------------------------------------------------------

    def telemetry_bytes(self) -> int:
        """Modelled resident telemetry memory; refreshes the peak.

        A deterministic arithmetic model (sketch values and buckets —
        see :mod:`repro.obs.sketch` — plus a constant per series), so
        the manifests and CI budgets built on it are platform-stable.
        """
        resident = len(self._series) * _SERIES_OVERHEAD
        for histogram in self._histograms.values():
            resident += histogram.footprint_bytes()
        if resident > self.peak_telemetry_bytes:
            self.peak_telemetry_bytes = resident
        return resident

    def sketch_histograms(self) -> int:
        """How many histograms have spilled past exact mode."""
        return sum(1 for histogram in self._histograms.values()
                   if not histogram.exact)

    # -- event handlers ----------------------------------------------------------

    def _add(self, name: str, value: float) -> None:
        histogram = self._histograms[name]
        if histogram.count == DEFAULT_EXACT_THRESHOLD:
            # This add spills the histogram to buckets, the one step
            # at which the modelled footprint falls: take the peak first.
            self.telemetry_bytes()
        histogram.add(value)

    def _handle(self, event) -> None:
        self.events_observed += 1
        self._dispatch[type(event)](event)

    def _on_transfer(self, event) -> None:
        self._add("net.transfer.duration", event.at - event.started_at)
        self._add("net.transfer.bytes", event.size)

    def _on_dht_lookup(self, event) -> None:
        if event.started_at is not None:
            self._add("dht.lookup.latency", event.at - event.started_at)

    def _on_block_fetched(self, event) -> None:
        self._add("ipfs.block.bytes", event.size)
        if event.started_at is not None:
            self._add("ipfs.fetch.latency", event.at - event.started_at)

    def _on_upload(self, event) -> None:
        self._add("protocol.upload.delay", event.delay)

    def _on_aggregated(self, event) -> None:
        if event.started_at is not None:
            self._add("protocol.collect.duration",
                      event.at - event.started_at)

    def _on_update(self, event) -> None:
        if event.started_at is not None:
            self._add("protocol.publish.duration",
                      event.at - event.started_at)

    def _on_sync_ended(self, event) -> None:
        self._add("protocol.sync.duration", event.duration)

    def _on_commitment(self, event) -> None:
        self._add("protocol.commit.seconds", event.seconds)


class ResourceSampler:
    """Substrate state read into a registry at round boundaries.

    An ordinary subscriber to ``IterationStarted`` and
    ``IterationFinished``: it schedules no kernel event, so an observed
    run dispatches exactly the steps of a bare one.  At each boundary
    it records only what a boundary read gives exactly:

    - ``ipfs.blockstore.bytes`` / ``ipfs.blockstore.objects`` — resident
      storage across the session's nodes, plus per-node
      ``ipfs.blockstore.node.bytes{node=...}``.  Storage only grows
      inside a round (eviction happens in ``collect_garbage``, between
      rounds), so the ``IterationFinished`` read is the exact maximum;
    - ``sched.stale_wakeups`` (series + counters gauge) — superseded
      flow-scheduler wakeups that fired anyway; stays 0 while kernel
      timeout cancellation holds, so any nonzero value flags heap
      pollution.

    Opt-in like every observer: an unobserved run never constructs one.
    """

    def __init__(self, bus: EventBus, registry: MetricsRegistry,
                 network, nodes: Iterable):
        self.registry = registry
        self.network = network
        self.nodes = list(nodes)
        self.samples_taken = 0
        self._subscription = bus.subscribe(
            self._on_boundary, IterationStarted, IterationFinished)

    @classmethod
    def for_session(cls, session,
                    registry: MetricsRegistry) -> "ResourceSampler":
        """Wire a sampler to everything an :class:`FLSession` owns."""
        return cls(session.sim.bus, registry,
                   session.testbed.network, session.nodes)

    def close(self) -> None:
        """Detach; safe to call more than once."""
        self._subscription.cancel()

    def _on_boundary(self, _event) -> None:
        registry = self.registry
        self.samples_taken += 1
        stale = self.network.stale_wakeups
        registry.timeseries("sched.stale_wakeups").record(stale)
        registry.counters.set_gauge("sched.stale_wakeups", stale)
        total_bytes = 0.0
        total_objects = 0
        for node in self.nodes:
            store = node.store
            total_bytes += store.total_bytes
            total_objects += len(store)
            registry.timeseries(
                "ipfs.blockstore.node.bytes", node=node.name
            ).record(store.total_bytes)
        registry.timeseries("ipfs.blockstore.bytes").record(total_bytes)
        registry.timeseries("ipfs.blockstore.objects").record(total_objects)
