"""Aggregated metrics over the event stream: the "shape of the run".

Counters (:mod:`repro.obs.counters`) answer *how much*; this module
answers *how distributed* and *over time*:

- a "histogram" is a :class:`~repro.obs.sketch.QuantileSketch` by
  name: below the exactness threshold p50/p95/p99 are float-equal to
  :func:`repro.analysis.stats.percentile`; above it the sketch bounds
  memory at O(distinct buckets) with a guaranteed relative error.
- :class:`TimeSeries` — a gauge sampled against the *simulated* clock,
  optionally labelled (``net.link.utilization{link="trainer-0/up"}``),
  kept as its count/min/max/mean/last digest in running accumulators.
- :class:`MetricsRegistry` — an ordinary bus subscriber deriving
  latency/size histograms from events the producers already publish,
  and accounting its own cost (``events_observed``,
  :meth:`~MetricsRegistry.telemetry_bytes`, ``peak_telemetry_bytes``)
  so run manifests can gate observability regressions.
- :class:`ResourceSampler` — a sim-clock probe recording per-link
  utilization, active flows, blockstore occupancy and directory queue
  depth into the registry's time series.

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
    SyncPhaseEnded,
    TransferCompleted,
    UpdateRegistered,
    UploadCompleted,
)
from .sketch import QuantileSketch

#: Label key/value pairs, kept as a sorted tuple so series hash cleanly.
Labels = Tuple[Tuple[str, str], ...]

#: Memory-model constant (platform-stable, not ``sys.getsizeof``): a
#: series is its accumulators, so it costs the same at any record count.
_SERIES_OVERHEAD = 256


def _freeze_labels(labels: Dict[str, str]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class TimeSeries:
    """A gauge the sampler reads on the simulated clock, kept as its
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

    @property
    def last(self) -> float:
        return self._last

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

    def _handle(self, event) -> None:
        self.events_observed += 1
        self._dispatch[type(event)](event)

    def _on_transfer(self, event) -> None:
        self._histograms["net.transfer.duration"].add(
            event.at - event.started_at)
        self._histograms["net.transfer.bytes"].add(event.size)

    def _on_dht_lookup(self, event) -> None:
        if event.started_at is not None:
            self._histograms["dht.lookup.latency"].add(
                event.at - event.started_at)

    def _on_block_fetched(self, event) -> None:
        self._histograms["ipfs.block.bytes"].add(event.size)
        if event.started_at is not None:
            self._histograms["ipfs.fetch.latency"].add(
                event.at - event.started_at)

    def _on_upload(self, event) -> None:
        self._histograms["protocol.upload.delay"].add(event.delay)

    def _on_aggregated(self, event) -> None:
        if event.started_at is not None:
            self._histograms["protocol.collect.duration"].add(
                event.at - event.started_at)

    def _on_update(self, event) -> None:
        if event.started_at is not None:
            self._histograms["protocol.publish.duration"].add(
                event.at - event.started_at)

    def _on_sync_ended(self, event) -> None:
        self._histograms["protocol.sync.duration"].add(event.duration)

    def _on_commitment(self, event) -> None:
        self._histograms["protocol.commit.seconds"].add(event.seconds)


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
        if interval <= 0:
            raise ValueError("tick interval must be positive")
        self.sim = sim
        self.interval = float(interval)
        self._tick = tick
        self._wakeup = None

    @property
    def active(self) -> bool:
        return self._wakeup is not None

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


class ResourceSampler(SimTicker):
    """Periodic sim-clock sampling of substrate state into a registry.

    Every ``interval`` simulated seconds (and once immediately on
    start) the sampler records:

    - ``net.flows.active`` — in-flight transfer count;
    - ``sched.stale_wakeups`` (series + counters gauge) — superseded
      flow-scheduler wakeups that fired anyway; stays 0 while kernel
      timeout cancellation holds, so any nonzero value flags heap
      pollution;
    - ``net.link.utilization{link=...}`` — allocated rate over capacity
      for every link currently crossed by a flow (idle links are not
      sampled, so the series measures utilization *while active*);
    - ``ipfs.blockstore.bytes`` / ``ipfs.blockstore.objects`` — resident
      storage across the given nodes, plus per-node
      ``ipfs.blockstore.node.bytes{node=...}``;
    - ``directory.queue.depth`` — requests waiting in the directory's
      inbox.

    Each tick ends by refreshing the registry's telemetry-memory peak
    (O(histograms): a series costs a constant), so
    ``peak_telemetry_bytes`` tracks the high-water mark before a
    histogram spills to sketch mode.

    The sampler is pull-based and opt-in: an unobserved run never
    constructs one, so the zero-subscriber overhead contract holds — the
    same reasoning as the ``bus.wants()`` guards at emission sites, with
    construction standing in for subscription.  See :class:`SimTicker`
    for the stop-before-``sim.run()`` rule.
    """

    def __init__(self, sim, registry: MetricsRegistry,
                 interval: float = 1.0, network=None,
                 nodes: Iterable = (), directory=None):
        super().__init__(sim, interval, self.sample)
        self.registry = registry
        self.network = network
        self.nodes = list(nodes)
        self.directory = directory
        self.samples_taken = 0
        #: (name, label value) -> TimeSeries, so the per-tick hot path
        #: skips the registry's label-freezing lookup.  Safe to hold:
        #: the registry never drops a created series.
        self._series_cache: Dict[Tuple[str, Optional[str]], TimeSeries] = {}
        self.start()

    def _series(self, name: str, label_value: Optional[str] = None,
                **labels: str) -> TimeSeries:
        key = (name, label_value)
        series = self._series_cache.get(key)
        if series is None:
            series = self.registry.timeseries(name, **labels)
            self._series_cache[key] = series
        return series

    @classmethod
    def for_session(cls, session, registry: MetricsRegistry,
                    interval: float = 1.0) -> "ResourceSampler":
        """Wire a sampler to everything an :class:`FLSession` owns."""
        return cls(
            session.sim, registry, interval=interval,
            network=session.testbed.network, nodes=session.nodes,
            directory=session.directory,
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Sample immediately, then every :attr:`interval` sim-seconds."""
        if not self.active:
            self.sample()
            super().start()

    def stop(self) -> None:
        """Stop sampling; safe to call more than once."""
        super().stop()
        self.registry.telemetry_bytes()  # final peak refresh

    # Alias so samplers read like the other obs resources.
    close = stop

    def __enter__(self) -> "ResourceSampler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampling ----------------------------------------------------------------

    def sample(self) -> None:
        """Take one sample at the current simulated instant."""
        registry = self.registry
        self.samples_taken += 1
        if self.network is not None:
            self._series("net.flows.active").record(
                self.network.active_transfers)
            self._series("sched.stale_wakeups").record(
                self.network.stale_wakeups)
            registry.counters.set_gauge(
                "sched.stale_wakeups", self.network.stale_wakeups)
            for link_name, utilization in \
                    self.network.link_utilization().items():
                self._series(
                    "net.link.utilization", link_name, link=link_name
                ).record(utilization)
        if self.nodes:
            total_bytes = 0.0
            total_objects = 0
            for node in self.nodes:
                store = node.store
                total_bytes += store.total_bytes
                total_objects += len(store)
                self._series(
                    "ipfs.blockstore.node.bytes", node.name,
                    node=node.name
                ).record(store.total_bytes)
            self._series("ipfs.blockstore.bytes").record(total_bytes)
            self._series("ipfs.blockstore.objects").record(total_objects)
        if self.directory is not None:
            self._series("directory.queue.depth").record(
                self.directory.inbox_depth())
        registry.telemetry_bytes()
