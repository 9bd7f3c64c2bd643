"""Observability overhead — the zero-overhead-when-unsubscribed contract.

Every emission site in the hot path guards event *construction* behind
``bus.wants(...)``, so a run with no subscribers pays one attribute
load and one membership check per site and never allocates an event.
This benchmark quantifies that on the paper's Fig. 1 configuration
(16 trainers, ~1.3 MB partition, merge-and-download): an unobserved run
(telemetry closed before the round) must stay within 5% of the fully
observed run's wall-clock.  Since the observed run does strictly more
work (event objects, dispatch, metric folding), this bounds the bus
machinery itself well below 5%.

The metrics layer rides the same bus, so its cost is budgeted here too:
a run with a :class:`~repro.obs.MetricsRegistry` *and* a quarter-second
:class:`~repro.obs.ResourceSampler` attached on top of telemetry must
stay within 10% of the bare (unobserved) run.  Likewise the audit
stack: a run with the :class:`~repro.obs.InvariantMonitors` and
:class:`~repro.obs.FlightRecorder` attached on top of telemetry (the
``python -m repro.cli audit`` configuration) gets the same 10% budget
and must, of course, find nothing on an honest run.  The anomaly
watchdog stacks on the audit wiring (the ``cli chaos --watch``
configuration): same 10% budget, and its detectors must stay silent on
the honest Fig. 1 run — a false positive here is a correctness failure,
not a perf one.
"""

import time

from _helpers import dummy_datasets, save_table

from repro.analysis import format_table
from repro.analysis.scale import ScaleScenario, run_scale_point
from repro.core import FLSession, ProtocolConfig
from repro.ml import SyntheticModel
from repro.net import NetworkProfile
from repro.obs import (
    AnomalyWatchdog,
    FlightRecorder,
    InvariantMonitors,
    MetricsRegistry,
    ResourceSampler,
)

NUM_TRAINERS = 16
PARTITION_PARAMS = 162_500  # ~1.3 MB of float64, as in Fig. 1
ROUNDS = 2
REPEATS = 7  # best-of; raised from 5 when the audit variant joined
MAX_OVERHEAD = 0.05
MAX_METRICS_OVERHEAD = 0.10
MAX_MONITORS_OVERHEAD = 0.10
SAMPLE_INTERVAL = 0.25

# -- cohort-scale budget (10^3 / 10^4 trainers) ----------------------------------
# The observed variant attaches the full bounded stack (registry,
# 5 sim-second resource sampler, 0.25 firehose sampling) on top of the
# default telemetry — the `cli scale --observe --event-sample-rate 0.25`
# configuration.  Peak telemetry memory comes from the deterministic
# obs memory model, so the byte budgets are exact-repeatable; only the
# wall-clock ratio is machine-dependent.
SCALE_POPULATIONS = (1_000, 10_000)
SCALE_REPEATS = 7
SCALE_ITERATIONS = 2  # longer runs damp scheduler jitter in the ratio
SCALE_EVENT_SAMPLE_RATE = 0.25
MAX_SCALE_OVERHEAD = 0.15
#: Peak modelled telemetry bytes per population (documented budget;
#: measured 344,576 / 801,600 for the 2-iteration scenario — the
#: committed BENCH_scale.json gates the exact values at 20%).
MAX_TELEMETRY_BYTES = {1_000: 512 * 1024, 10_000: 1024 * 1024}


def _make_session():
    config = ProtocolConfig(
        num_partitions=1,
        t_train=3600.0,
        t_sync=7200.0,
        update_mode="gradient",
        poll_interval=0.25,
        merge_and_download=True,
        providers_per_aggregator=4,
    )
    return FLSession(
        config,
        model_factory=lambda: SyntheticModel(PARTITION_PARAMS),
        datasets=dummy_datasets(NUM_TRAINERS),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )


def _one_run(observed: bool) -> float:
    """Wall-clock seconds for ROUNDS rounds of a fresh session."""
    session = _make_session()
    if not observed:
        session.telemetry.close()
        assert not session.sim.bus.active
    started = time.perf_counter()
    for _ in range(ROUNDS):
        metrics = session.run_iteration()
    elapsed = time.perf_counter() - started
    assert (metrics is not None) == observed
    return elapsed


def _one_metrics_run() -> float:
    """Wall-clock seconds with the full metrics stack attached:
    telemetry + MetricsRegistry (with its owned counters) + a
    quarter-second resource sampler."""
    session = _make_session()
    registry = MetricsRegistry(session.sim.bus)
    sampler = ResourceSampler.for_session(session, registry,
                                          interval=SAMPLE_INTERVAL)
    started = time.perf_counter()
    for _ in range(ROUNDS):
        session.run_iteration()
    elapsed = time.perf_counter() - started
    sampler.stop()
    registry.close()
    assert registry.histogram("net.transfer.duration").count > 0
    assert sampler.samples_taken > ROUNDS
    return elapsed


def _one_monitors_run() -> float:
    """Wall-clock seconds with the audit stack attached: telemetry +
    flight recorder + invariant monitors (the ``cli audit`` wiring)."""
    session = _make_session()
    recorder = FlightRecorder(session.sim.bus)
    monitors = InvariantMonitors(session.sim.bus)
    started = time.perf_counter()
    for _ in range(ROUNDS):
        session.run_iteration()
    elapsed = time.perf_counter() - started
    session.collect_garbage(keep_iterations=1)
    violations = monitors.finalize()
    recorder.close()
    assert violations == [], f"honest Fig. 1 run not clean: {violations}"
    assert recorder.incidents == []
    return elapsed


def _one_watchdog_run() -> float:
    """Wall-clock seconds with the chaos-watch stack attached:
    telemetry + flight recorder + invariant monitors + the anomaly
    watchdog (the ``cli chaos --watch`` wiring)."""
    session = _make_session()
    recorder = FlightRecorder(session.sim.bus)
    monitors = InvariantMonitors(session.sim.bus)
    watchdog = AnomalyWatchdog.for_session(session)
    started = time.perf_counter()
    for _ in range(ROUNDS):
        session.run_iteration()
    elapsed = time.perf_counter() - started
    watchdog.finalize()
    session.collect_garbage(keep_iterations=1)
    violations = monitors.finalize()
    recorder.close()
    assert violations == [], f"honest Fig. 1 run not clean: {violations}"
    assert watchdog.anomalies == [], (
        f"false positives on an honest run: {watchdog.summary()}")
    assert watchdog.ticks > 0
    assert recorder.incidents == []
    return elapsed


def test_unobserved_run_pays_no_instrumentation_tax():
    # Interleave the variants and compare best-of: per-run noise on
    # a shared machine dwarfs the effect under test, while the minimum
    # of each variant converges on its true cost.
    # Each ratio is additionally gated on its *cleanest pair*: the
    # variants of one repeat run back-to-back, so a load burst on a
    # shared machine contaminates at most the repeats it overlaps,
    # whereas min-of-each-variant compares walls measured minutes apart
    # under drifting load.
    observed_runs, unobserved_runs = [], []
    metrics_runs, monitors_runs, watchdog_runs = [], [], []
    for _ in range(REPEATS):
        observed_runs.append(_one_run(observed=True))
        unobserved_runs.append(_one_run(observed=False))
        metrics_runs.append(_one_metrics_run())
        monitors_runs.append(_one_monitors_run())
        watchdog_runs.append(_one_watchdog_run())
    observed = min(observed_runs)
    unobserved = min(unobserved_runs)
    with_metrics = min(metrics_runs)
    with_monitors = min(monitors_runs)
    with_watchdog = min(watchdog_runs)
    overhead = min(
        u / o for u, o in zip(unobserved_runs, observed_runs)) - 1.0
    metrics_overhead = min(
        m / u for m, u in zip(metrics_runs, unobserved_runs)) - 1.0
    monitors_overhead = min(
        m / u for m, u in zip(monitors_runs, unobserved_runs)) - 1.0
    watchdog_overhead = min(
        w / u for w, u in zip(watchdog_runs, unobserved_runs)) - 1.0
    save_table("obs_overhead", format_table(
        ["variant", "wall-clock (s)"],
        [
            ["observed (telemetry subscribed)", observed],
            ["unobserved (no subscribers)", unobserved],
            ["metrics (registry + 0.25 s sampler)", with_metrics],
            ["audit (monitors + flight recorder)", with_monitors],
            ["watch (audit + anomaly watchdog)", with_watchdog],
            ["bus overhead (unobserved vs observed)",
             f"{overhead * 100:+.1f}%"],
            ["metrics overhead (vs unobserved)",
             f"{metrics_overhead * 100:+.1f}%"],
            ["audit overhead (vs unobserved)",
             f"{monitors_overhead * 100:+.1f}%"],
            ["watch overhead (vs unobserved)",
             f"{watchdog_overhead * 100:+.1f}%"],
        ],
        title=f"{NUM_TRAINERS} trainers, {ROUNDS} rounds, Fig. 1 config",
    ))
    assert overhead <= MAX_OVERHEAD, (
        f"unobserved run {unobserved:.3f}s exceeds observed "
        f"{observed:.3f}s by more than {MAX_OVERHEAD:.0%}"
    )
    assert metrics_overhead <= MAX_METRICS_OVERHEAD, (
        f"metrics-attached run {with_metrics:.3f}s exceeds bare "
        f"{unobserved:.3f}s by more than {MAX_METRICS_OVERHEAD:.0%}"
    )
    assert monitors_overhead <= MAX_MONITORS_OVERHEAD, (
        f"audit-attached run {with_monitors:.3f}s exceeds bare "
        f"{unobserved:.3f}s by more than {MAX_MONITORS_OVERHEAD:.0%}"
    )
    assert watchdog_overhead <= MAX_MONITORS_OVERHEAD, (
        f"watchdog-attached run {with_watchdog:.3f}s exceeds bare "
        f"{unobserved:.3f}s by more than {MAX_MONITORS_OVERHEAD:.0%}"
    )


def test_observed_cohort_scale_stays_inside_the_budget():
    """The tentpole contract at cohort scale: a fully observed
    10^3/10^4-population run stays within MAX_SCALE_OVERHEAD of the
    bare run, and its peak modelled telemetry memory stays inside the
    documented per-population byte budget."""
    bare_scenario = ScaleScenario(iterations=SCALE_ITERATIONS)
    observed_scenario = ScaleScenario(
        iterations=SCALE_ITERATIONS, observed=True,
        event_sample_rate=SCALE_EVENT_SAMPLE_RATE)
    rows = []
    for population in SCALE_POPULATIONS:
        # Pair the variants back-to-back and gate on the *cleanest
        # pair's* ratio: a load burst contaminates at most the pairs it
        # overlaps, while min-of-each-side compares walls measured at
        # different moments under drifting load.
        bare_wall = observed_wall = best_ratio = float("inf")
        observed_point = None
        for _ in range(SCALE_REPEATS):
            bare = run_scale_point(population, bare_scenario)
            observed_point = run_scale_point(population, observed_scenario)
            ratio = observed_point.wall_seconds / bare.wall_seconds
            if ratio < best_ratio:
                best_ratio = ratio
                bare_wall = bare.wall_seconds
                observed_wall = observed_point.wall_seconds
        overhead = best_ratio - 1.0
        budget = MAX_TELEMETRY_BYTES[population]
        rows.append([population, round(bare_wall, 4),
                     round(observed_wall, 4), f"{overhead * 100:+.1f}%",
                     observed_point.telemetry_peak_bytes, budget,
                     observed_point.events_observed])
        assert observed_point.telemetry_peak_bytes > 0
        assert observed_point.telemetry_peak_bytes <= budget, (
            f"p{population}: peak telemetry "
            f"{observed_point.telemetry_peak_bytes} B exceeds the "
            f"documented budget {budget} B"
        )
        assert overhead <= MAX_SCALE_OVERHEAD, (
            f"p{population}: observed run {observed_wall:.3f}s exceeds "
            f"bare {bare_wall:.3f}s by more than {MAX_SCALE_OVERHEAD:.0%}"
        )
    save_table("obs_overhead_scale", format_table(
        ["population", "bare wall/iter (s)", "observed wall/iter (s)",
         "overhead", "telemetry peak (B)", "budget (B)", "events observed"],
        rows,
        title=("observed stack: registry + 5 s sampler + "
               f"{SCALE_EVENT_SAMPLE_RATE} firehose sampling"),
    ))


def test_overhead_benchmark(benchmark):
    """pytest-benchmark timing of the unobserved configuration."""
    def run():
        session = _make_session()
        session.telemetry.close()
        session.run(rounds=1)

    benchmark(run)
