"""The metrics layer: histograms, resource sampling, run manifests and
regression diffs."""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.core import FLSession, ProtocolConfig
from repro.ml import Dataset, SyntheticModel
from repro.net import NetworkProfile
from repro.obs import (
    CountersRegistry,
    EventBus,
    MetricsRegistry,
    ResourceSampler,
    RunManifest,
    compare_manifests,
)
from repro.obs.metrics import _SERIES_OVERHEAD, TimeSeries
from repro.obs.events import (
    BlockFetched,
    CommitmentComputed,
    DhtLookup,
    SyncPhaseEnded,
    TransferCompleted,
    UploadCompleted,
)
from tests.util import run_bundle


# -- TimeSeries ------------------------------------------------------------------


def test_timeseries_digest_and_key():
    series = TimeSeries("ipfs.blockstore.node.bytes",
                        (("node", "ipfs-0"),))
    assert series.key() == "ipfs.blockstore.node.bytes{node=ipfs-0}"
    assert series.digest() == {"count": 0}
    series.record(0.5)
    series.record(1.0)
    series.record(0.1)
    assert series.digest() == {
        "count": 3, "min": 0.1, "max": 1.0,
        "mean": pytest.approx(1.6 / 3), "last": 0.1,
    }


# -- MetricsRegistry -------------------------------------------------------------


def publish_synthetic_stream(bus):
    bus.publish(TransferCompleted(at=1.5, src="a", dst="b", size=1000.0,
                                  started_at=0.5))
    bus.publish(TransferCompleted(at=3.0, src="b", dst="a", size=500.0,
                                  started_at=1.0))
    bus.publish(DhtLookup(at=0.3, querier="a", cid="c1", providers=2,
                          hops=3, started_at=0.1))
    bus.publish(BlockFetched(at=2.0, client="a", node="ipfs-0", cid="c1",
                             size=4096, started_at=1.0))
    bus.publish(UploadCompleted(at=4.0, iteration=0, trainer="t",
                                delay=0.8))
    bus.publish(SyncPhaseEnded(at=5.0, iteration=0, aggregator="agg",
                               duration=0.4))
    bus.publish(CommitmentComputed(at=5.0, iteration=0, participant="t",
                                   seconds=0.01))


def test_registry_derives_histograms_from_events():
    bus = EventBus()
    registry = MetricsRegistry(bus)
    publish_synthetic_stream(bus)
    assert registry.histogram("net.transfer.duration").values() == [1.0, 2.0]
    assert registry.histogram("net.transfer.bytes").total == 1500.0
    # A lookup's hop count is published as 0: no histogram folds it.
    assert "dht.lookup.hops" not in registry.histograms()
    assert registry.histogram("dht.lookup.latency").values() == \
        [pytest.approx(0.2)]
    assert registry.histogram("ipfs.fetch.latency").values() == [1.0]
    assert registry.histogram("ipfs.block.bytes").values() == [4096.0]
    assert registry.histogram("protocol.upload.delay").values() == [0.8]
    assert registry.histogram("protocol.sync.duration").values() == [0.4]
    assert registry.histogram("protocol.commit.seconds").values() == [0.01]
    # The owned counters ride along on the same stream.
    assert registry.counters.get("net.bytes") == 1500.0


def test_registry_ignores_events_without_correlation_keys():
    bus = EventBus()
    registry = MetricsRegistry(bus)
    bus.publish(DhtLookup(at=0.3, querier=None, cid="c", providers=0,
                          hops=0))  # no started_at
    bus.publish(BlockFetched(at=2.0, client="a", node="n", cid="c",
                             size=10))  # no started_at
    assert registry.histogram("dht.lookup.latency").count == 0
    assert registry.histogram("ipfs.fetch.latency").count == 0
    assert registry.events_observed == 2
    assert registry.histogram("ipfs.block.bytes").count == 1


def test_registry_close_detaches_everything_it_attached():
    bus = EventBus()
    registry = MetricsRegistry(bus)
    publish_synthetic_stream(bus)
    registry.close()
    assert not bus.active  # subscription AND owned counters detached
    publish_synthetic_stream(bus)
    assert registry.histogram("net.transfer.duration").count == 2
    assert registry.counters.get("net.transfers") == 2


def test_registry_leaves_borrowed_counters_attached():
    bus = EventBus()
    counters = CountersRegistry(bus)
    registry = MetricsRegistry(bus, counters=counters)
    registry.close()
    assert bus.active  # the caller's counters keep recording
    publish_synthetic_stream(bus)
    assert counters.get("net.transfers") == 2
    counters.close()
    assert not bus.active


def test_timeseries_get_or_create_by_name_and_labels():
    registry = MetricsRegistry(EventBus())
    a = registry.timeseries("ipfs.blockstore.node.bytes", node="a")
    b = registry.timeseries("ipfs.blockstore.node.bytes", node="b")
    assert a is not b
    assert a is registry.timeseries("ipfs.blockstore.node.bytes", node="a")
    a.record(1.0)
    assert [s.key() for s in registry.series()] == [
        "ipfs.blockstore.node.bytes{node=a}",
        "ipfs.blockstore.node.bytes{node=b}",
    ]


# -- ResourceSampler -------------------------------------------------------------


def small_session(bandwidth_mbps=10.0, num_trainers=4, seed=0):
    config = ProtocolConfig(
        num_partitions=2,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=0.25,
        seed=seed,
    )
    shards = [
        Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
        for index in range(num_trainers)
    ]
    return FLSession(
        config,
        model_factory=lambda: SyntheticModel(20_000),
        datasets=shards,
        network=NetworkProfile(num_ipfs_nodes=4,
                               bandwidth_mbps=bandwidth_mbps),
    )


def test_sampler_observes_session_resources():
    session = small_session()
    registry = MetricsRegistry(session.sim.bus)
    sampler = ResourceSampler.for_session(session, registry)
    session.run(rounds=2)
    sampler.close()
    registry.close()
    assert sampler.samples_taken == 4  # each round's start and finish
    digests = {series.key(): series.digest()
               for series in registry.series()}
    per_node = [k for k in digests
                if k.startswith("ipfs.blockstore.node.bytes{")]
    assert sorted(digests) == sorted(
        per_node + ["ipfs.blockstore.bytes", "ipfs.blockstore.objects",
                    "sched.stale_wakeups"])
    assert len(per_node) == len(session.nodes)
    # Nothing is evicted inside a round, so the round's last read is
    # what the stores hold now.
    assert digests["ipfs.blockstore.bytes"]["max"] == \
        digests["ipfs.blockstore.bytes"]["last"] == session.storage_bytes
    assert digests["ipfs.blockstore.objects"]["max"] >= 1
    assert digests["sched.stale_wakeups"]["max"] == 0
    assert registry.counters.gauges()["sched.stale_wakeups"] == 0


def _steps(observe):
    """Kernel steps of two rounds of the small session, with
    ``observe(session)`` attached first."""
    session = small_session()
    observe(session)
    steps, step = [], session.sim.step
    session.sim.step = lambda: (steps.append(None), step())
    session.run(rounds=2)
    return len(steps)


def test_registry_and_sampler_schedule_no_kernel_event():
    """An observed run dispatches exactly the steps of a bare one."""
    def metered(session):
        registry = MetricsRegistry(session.sim.bus)
        ResourceSampler.for_session(session, registry)

    assert _steps(metered) == _steps(lambda session: None)


def test_peak_telemetry_is_the_exact_high_water_mark():
    """Five rounds of 32 trainers make 4 410 transfers: both transfer
    histograms spill to sketch mode in round five.  The registry's peak
    equals a subscriber that takes the modelled total after every
    event."""
    session = small_session(num_trainers=32)
    registry = MetricsRegistry(session.sim.bus)
    sampler = ResourceSampler.for_session(session, registry)
    totals = []

    def modelled_total(_event):
        totals.append(
            len(registry.series()) * _SERIES_OVERHEAD
            + sum(histogram.footprint_bytes()
                  for histogram in registry.histograms().values()))

    session.sim.bus.subscribe(modelled_total)  # after every handler
    session.run(rounds=5)
    sampler.close()
    registry.close()
    assert registry.sketch_histograms() == 2
    assert totals[-1] < max(totals)  # the spill let the footprint fall
    assert registry.peak_telemetry_bytes == max(totals)


# -- conservation across subscribers (satellite invariant) -----------------------


FIG1_TRAINERS = 16
FIG1_PARTITION_PARAMS = 162_500  # ~1.3 MB of float64, as in Fig. 1


def fig1_session():
    config = ProtocolConfig(
        num_partitions=1,
        t_train=3600.0,
        t_sync=7200.0,
        update_mode="gradient",
        poll_interval=0.25,
        merge_and_download=True,
        providers_per_aggregator=4,
    )
    shards = [
        Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
        for index in range(FIG1_TRAINERS)
    ]
    return FLSession(
        config,
        model_factory=lambda: SyntheticModel(FIG1_PARTITION_PARAMS),
        datasets=shards,
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )


def test_transfer_bytes_conserved_across_subscribers_on_fig1_config():
    """Every subscriber of TransferCompleted must account the same
    bytes: the metrics histogram, the counters registry and the
    TransferCompleted events themselves are three independent views of
    one stream."""
    session = fig1_session()
    registry = MetricsRegistry(session.sim.bus)
    transfers = []
    session.sim.bus.subscribe(transfers.append, TransferCompleted)
    metrics = session.run_iteration()
    histogram = registry.histogram("net.transfer.bytes")
    assert histogram.total == registry.counters.get("net.bytes")
    assert histogram.total == sum(event.size for event in transfers)
    assert histogram.count == registry.counters.get("net.transfers")
    assert histogram.count == len(transfers)
    # And the telemetry layer's per-iteration download totals are a
    # subset of the same stream: no participant can have received more
    # than crossed the network.
    assert sum(metrics.bytes_received.values()) <= histogram.total


# -- RunManifest and compare -----------------------------------------------------


def manifest_from_stream(extra_duration=None, fingerprint=None):
    bus = EventBus()
    registry = MetricsRegistry(bus)
    publish_synthetic_stream(bus)
    if extra_duration is not None:
        bus.publish(TransferCompleted(
            at=extra_duration, src="a", dst="b", size=1000.0,
            started_at=0.0,
        ))
    registry.timeseries("ipfs.blockstore.bytes").record(3.0)
    return RunManifest.collect(registry, fingerprint=fingerprint)


def test_manifest_json_round_trip(tmp_path):
    manifest = manifest_from_stream(fingerprint={"digest": "abc"})
    path = tmp_path / "run.json"
    manifest.write(path)
    loaded = RunManifest.load(path)
    assert loaded == manifest
    assert json.loads(manifest.to_json())["version"] == manifest.version
    assert loaded.histograms["net.transfer.duration"]["count"] == 2
    assert "ipfs.blockstore.bytes" in loaded.series
    # Empty histograms are omitted from the manifest entirely.
    assert "protocol.collect.duration" not in loaded.histograms


def test_manifest_from_json_ignores_unknown_keys():
    manifest = manifest_from_stream()
    raw = json.loads(manifest.to_json())
    raw["some_future_field"] = {"x": 1}
    assert RunManifest.from_json(json.dumps(raw)) == manifest


def test_compare_flags_regression_with_direction():
    base = manifest_from_stream()
    # Third transfer takes 8 s: mean and p95 durations move up >> 10%.
    slower = manifest_from_stream(extra_duration=8.0)
    diff = compare_manifests(base, slower, threshold=0.10)
    assert diff.regressions
    regressed = {entry.metric for entry in diff.regressions}
    assert "net.transfer.duration.mean" in regressed
    assert "net.transfer.duration.p95" in regressed
    # The reverse comparison is an improvement, not a regression.
    reverse = compare_manifests(slower, base, threshold=0.10)
    assert not reverse.regressions
    assert {e.metric for e in reverse.improvements} >= regressed


def test_compare_identical_manifests_is_clean():
    manifest = manifest_from_stream(fingerprint={"digest": "same"})
    diff = compare_manifests(manifest, manifest)
    assert not diff.regressions
    assert not diff.improvements
    assert diff.fingerprint_matches
    assert diff.unchanged > 0
    assert "0 regression(s)" in diff.format()


def test_diffentry_inf_change_on_zero_base():
    from repro.obs.manifest import DiffEntry

    entry = DiffEntry(metric="m", base=0.0, current=1.0, threshold=0.1)
    assert entry.relative_change == math.inf
    flat = DiffEntry(metric="m", base=0.0, current=0.0, threshold=0.1)
    assert flat.relative_change == 0.0


def test_compare_reports_added_and_removed_metrics():
    base = manifest_from_stream()
    other = manifest_from_stream()
    other.counters["brand.new"] = 1.0
    del other.counters["net.transfers"]
    diff = compare_manifests(base, other)
    assert "brand.new" in diff.added
    assert "net.transfers" in diff.removed
    assert not any(e.metric == "net.transfers" for e in diff.regressions)


def test_session_fingerprint_is_stable_and_scenario_sensitive():
    a = small_session().fingerprint()
    b = small_session().fingerprint()
    slow = small_session(bandwidth_mbps=6.0).fingerprint()
    assert a["digest"] == b["digest"]
    assert a["digest"] != slow["digest"]
    assert a["trainers"] == 4 and a["ipfs_nodes"] == 4


# -- the CLI ---------------------------------------------------------------------


CLI_SESSION_ARGS = ["--trainers", "2", "--rounds", "1", "--partitions",
                    "1", "--ipfs-nodes", "2", "--params", "2000"]


def test_cli_metrics_writes_exposition_and_manifest(tmp_path):
    """The bundle's comparable metrics file is the manifest (there is
    no text exposition any more): counters, histogram summaries, the
    sampler's series, keyed to the run's fingerprint."""
    run = run_bundle(CLI_SESSION_ARGS, tmp_path)
    assert run.code == 0
    manifest = RunManifest.load(tmp_path / "manifest.json")
    assert manifest.counters["net.transfers"] > 0
    assert manifest.histograms["net.transfer.duration"]["count"] == \
        manifest.counters["net.transfers"]
    assert "ipfs.blockstore.bytes" in manifest.series
    assert manifest.fingerprint["digest"]
    assert "resource samples -> manifest.json" in run.out


def test_cli_metrics_streams_to_stdout(tmp_path):
    """Nothing of the manifest streams to stdout: the report sums up
    what it holds, and the sums are the manifest's."""
    run = run_bundle(CLI_SESSION_ARGS, tmp_path)
    assert run.code == 0
    manifest = RunManifest.load(tmp_path / "manifest.json")
    observed = sum(h["count"] for h in manifest.histograms.values())
    assert (f"{int(observed)} observations across "
            f"{len(manifest.histograms)} histograms") in run.out
    assert '"counters"' not in run.out


def test_cli_compare_detects_slow_link_regression(tmp_path, capsys):
    """The acceptance scenario: a synthetic slow-link run regresses
    transfer durations by >= 20% and `cli explain` names the metric."""
    assert run_bundle(CLI_SESSION_ARGS + ["--bandwidth-mbps", "10"],
                      tmp_path / "base").code == 0
    # 6 Mbps links: every transfer takes ~1.67x as long (>= +20%).
    assert run_bundle(CLI_SESSION_ARGS + ["--bandwidth-mbps", "6"],
                      tmp_path / "slow").code == 0
    base = RunManifest.load(tmp_path / "base" / "manifest.json")
    slow = RunManifest.load(tmp_path / "slow" / "manifest.json")
    base_mean = base.histograms["net.transfer.duration"]["mean"]
    slow_mean = slow.histograms["net.transfer.duration"]["mean"]
    assert slow_mean >= base_mean * 1.2  # the injected regression is real

    assert main(["explain", str(tmp_path / "base"), str(tmp_path / "slow"),
                 "--threshold", "0.1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    regressed = {entry["metric"]
                 for entry in report["metrics"]["regressions"]}
    assert "net.transfer.duration.mean" in regressed
    assert not report["fingerprint_matches"]
    assert "link_capacities" in report["config_changes"]
    # And the clean direction has nothing to attribute to a metric.
    assert main(["explain", str(tmp_path / "base"), str(tmp_path / "base"),
                 "--json"]) == 0
    same = json.loads(capsys.readouterr().out)
    assert not same["metrics"]["regressions"]


def test_cli_metrics_failing_run_still_writes_exposition(
        tmp_path, monkeypatch):
    from repro.core import FLSession as Session

    def exploding_run(self, rounds):
        raise RuntimeError("mid-round crash")

    monkeypatch.setattr(Session, "run", exploding_run)
    run = run_bundle(CLI_SESSION_ARGS, tmp_path)
    assert run.code == 1
    partial = RunManifest.load(tmp_path / "manifest.json")  # still valid
    assert partial.fingerprint["digest"]
    assert "run failed" in run.err


# -- self-accounting -------------------------------------------------------------


def test_registry_accounts_its_own_cost():
    bus = EventBus()
    registry = MetricsRegistry(bus)
    publish_synthetic_stream(bus)
    assert registry.events_observed == 7
    first = registry.telemetry_bytes()
    assert first > 0
    assert registry.peak_telemetry_bytes >= first
    registry.timeseries("x").record(1.0)
    assert registry.telemetry_bytes() > first
    peak = registry.peak_telemetry_bytes
    registry.close()
    assert registry.peak_telemetry_bytes >= peak
    # Unwatched events after close are not folded.
    publish_synthetic_stream(bus)
    assert registry.events_observed == 7


def test_a_series_costs_the_same_after_one_record_and_after_ten_thousand():
    """A series is its digest: its modelled bytes do not grow with the
    records it has folded."""
    registry = MetricsRegistry(EventBus())
    series = registry.timeseries("x")
    series.record(1.0)
    after_one = registry.telemetry_bytes()
    for index in range(1, 10_000):
        series.record(math.sin(index / 7.0))
    assert series.digest()["count"] == 10_000
    assert registry.telemetry_bytes() == after_one


# -- the unobserved path allocates no telemetry (satellite regression) -----------


def test_unobserved_exact_run_allocates_no_telemetry_state(monkeypatch):
    """A 64-trainer exact round with nothing but the session's own
    telemetry attached must never construct a time series or sketch:
    the zero-subscriber contract extends to allocation, not just
    dispatch."""
    import repro.obs.metrics as metrics_module
    import repro.obs.sketch as sketch_module

    def explode(self, *args, **kwargs):
        raise AssertionError(
            f"{type(self).__name__} allocated during an unobserved run")

    monkeypatch.setattr(metrics_module.TimeSeries, "__init__", explode)
    monkeypatch.setattr(sketch_module.QuantileSketch, "__init__", explode)
    session = FLSession(
        ProtocolConfig(num_partitions=4, t_train=600.0, t_sync=1200.0,
                       update_mode="gradient", poll_interval=0.25, seed=7),
        lambda: SyntheticModel(4_000),
        [Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
         for index in range(64)],
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 64
