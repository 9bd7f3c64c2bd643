"""Observability overhead — what the obs layer costs, measured as a layer.

Every emission site in the hot path guards event *construction* behind
``bus.wants(...)``, so a run with no subscribers pays one attribute
load and one membership check per site and never allocates an event.
This benchmark prices that on the paper's Fig. 1 configuration
(16 trainers, ~1.3 MB partition, merge-and-download).

Each variant runs once under a :class:`~repro.obs.HostProfiler` and is
charged its ``obs`` *exclusive self-seconds* — the host time spent in
``repro.obs`` functions and in the builtins they called — and the share
of the profiled round that is.  Both come from one run, so no ratio of
two noisy walls is taken and no overhead can come out negative (the
previous table reported ``min(ratio) - 1`` over repeats, a statistic
that is negative by construction).  cProfile slows Python calls and not
native code, and obs handlers are call-heavy, so the share *over*states
the unprofiled cost: the budgets below are on the share as measured.

- unobserved (telemetry closed before the round): ``obs`` share < 1 % —
  the bus machinery itself;
- metrics: :class:`~repro.obs.MetricsRegistry` + the round-boundary
  :class:`~repro.obs.ResourceSampler` on top of telemetry;
- audit: :class:`~repro.obs.InvariantMonitors` +
  :class:`~repro.obs.FlightRecorder` (the correctness half of the
  ``cli run`` stack), which must find nothing on an honest run;
- watch: audit + :class:`~repro.obs.AnomalyWatchdog`, whose detectors
  must stay silent on the honest run — a false positive here is a
  correctness failure, not a perf one.

A second test prices the metrics stack on an exact 128-trainer round,
where the histograms spill to sketch mode: the ``obs`` share and the
peak modelled telemetry memory stay inside their budgets.
"""

from _helpers import save_table

from repro.analysis import format_table
from repro.analysis.figures import marker_datasets
from repro.core import FLSession, ProtocolConfig
from repro.ml import SyntheticModel
from repro.net import NetworkProfile
from repro.obs import (
    AnomalyWatchdog,
    FlightRecorder,
    HostProfiler,
    InvariantMonitors,
    MetricsRegistry,
    ResourceSampler,
)

NUM_TRAINERS = 16
PARTITION_PARAMS = 162_500  # ~1.3 MB of float64, as in Fig. 1
ROUNDS = 2
#: Budgets on the ``obs`` share of the profiled wall.  Measured over
#: five runs on a 2-CPU VM: unobserved 0.006-0.008, telemetry
#: 0.009-0.016, metrics 0.109-0.120, audit 0.019-0.025, watch
#: 0.016-0.038 (the committed table is
#: benchmarks/results/obs_overhead.txt).
MAX_UNOBSERVED_SHARE = 0.01
MAX_OBS_SHARE = {"metrics": 0.15, "audit": 0.04, "watch": 0.04}

# -- exact-population budget (128 trainers) -----------------------------------
# Registry + the round-boundary resource sampler on one exact round of the
# benchmark's exact-N configuration.  Peak telemetry memory comes from
# the deterministic obs memory model, so its budget is exact-repeatable;
# only the obs share is machine-dependent.
EXACT_TRAINERS = 128
#: Measured 0.165-0.185 (five runs, 2.2-3.3 profiled seconds).
MAX_EXACT_OBS_SHARE = 0.25
#: Measured 288 000 B, the exact peak: the footprint just before the two
#: transfer histograms spill to sketch mode (4 096 exact values each;
#: 14 116 observations by the end of the round).
MAX_EXACT_TELEMETRY_BYTES = 384 * 1024


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
        datasets=marker_datasets(NUM_TRAINERS),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )


def _obs_cost(profile):
    """``(profiled seconds, obs self-seconds, obs share)`` of a profile."""
    obs = profile.subsystem_seconds().get("obs", 0.0)
    return profile.attributed_seconds, obs, obs / profile.attributed_seconds


def _profiled_rounds(session):
    """ROUNDS rounds of ``session`` under the host profiler."""
    profiler = HostProfiler().install(session.sim)
    for _ in range(ROUNDS):
        metrics = session.run_iteration()
    profiler.uninstall()
    return metrics, profiler.profile()


def _one_run(observed: bool):
    """The default session: telemetry subscribed, or nothing at all."""
    session = _make_session()
    if not observed:
        session.telemetry.close()
        assert not session.sim.bus.active
    metrics, profile = _profiled_rounds(session)
    assert (metrics is not None) == observed
    return profile


def _one_metrics_run():
    """The full metrics stack: telemetry + MetricsRegistry (with its
    owned counters) + the round-boundary resource sampler."""
    session = _make_session()
    registry = MetricsRegistry(session.sim.bus)
    sampler = ResourceSampler.for_session(session, registry)
    _metrics, profile = _profiled_rounds(session)
    sampler.close()
    registry.close()
    assert registry.histogram("net.transfer.duration").count > 0
    assert sampler.samples_taken == 2 * ROUNDS
    return profile


def _one_audit_run(watch: bool):
    """The audit stack: telemetry + flight recorder + invariant
    monitors, plus the anomaly watchdog with ``watch`` (together the
    correctness half of the ``cli run`` stack)."""
    session = _make_session()
    recorder = FlightRecorder(session.sim.bus)
    monitors = InvariantMonitors(session.sim.bus)
    watchdog = AnomalyWatchdog.for_session(session) if watch else None
    _metrics, profile = _profiled_rounds(session)
    if watchdog is not None:
        watchdog.finalize()
        assert watchdog.anomalies == [], (
            f"false positives on an honest run: {watchdog.summary()}")
        assert watchdog.ticks > 0
    session.collect_garbage(keep_iterations=1)
    violations = monitors.finalize()
    recorder.close()
    assert violations == [], f"honest Fig. 1 run not clean: {violations}"
    assert recorder.incidents == []
    return profile


def test_unobserved_run_pays_no_instrumentation_tax():
    costs = {  # stack -> (what is attached, its obs cost)
        "unobserved": ("no subscribers",
                       _obs_cost(_one_run(observed=False))),
        "observed": ("telemetry subscribed",
                     _obs_cost(_one_run(observed=True))),
        "metrics": ("registry + boundary sampler",
                    _obs_cost(_one_metrics_run())),
        "audit": ("monitors + flight recorder",
                  _obs_cost(_one_audit_run(watch=False))),
        "watch": ("audit + anomaly watchdog",
                  _obs_cost(_one_audit_run(watch=True))),
    }
    save_table("obs_overhead", format_table(
        ["variant", "profiled (s)", "obs self (s)", "obs share"],
        [[f"{stack} ({attached})", round(profiled, 3), round(obs, 4),
          f"{share:.3f}"]
         for stack, (attached, (profiled, obs, share)) in costs.items()],
        title=(f"{NUM_TRAINERS} trainers, {ROUNDS} rounds, Fig. 1 config; "
               "one HostProfiler run per variant"),
    ))
    # A self time is a sum of measured intervals: never negative.
    assert all(obs >= 0 and share >= 0
               for _attached, (_profiled, obs, share) in costs.values())
    shares = {stack: cost[2] for stack, (_attached, cost) in costs.items()}
    assert shares["unobserved"] < MAX_UNOBSERVED_SHARE, (
        f"obs is {shares['unobserved']:.3f} of a run nobody observes")
    for stack, budget in MAX_OBS_SHARE.items():
        assert shares[stack] <= budget, (
            f"{stack} stack: obs share {shares[stack]:.3f} exceeds "
            f"its {budget:.2f} budget")


def test_observed_exact_population_stays_inside_the_budget():
    """The contract at exact N: on a fully metered 128-trainer round
    ``obs`` stays inside its share of the profiled wall, and the peak
    modelled telemetry memory inside its byte budget."""
    config = ProtocolConfig(
        num_partitions=4,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=0.25,
    )
    session = FLSession(
        config,
        model_factory=lambda: SyntheticModel(40_000),
        datasets=marker_datasets(EXACT_TRAINERS),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )
    registry = MetricsRegistry(session.sim.bus)
    sampler = ResourceSampler.for_session(session, registry)
    profiler = HostProfiler().install(session.sim)
    metrics = session.run_iteration()
    profiler.uninstall()
    sampler.close()
    registry.close()
    assert len(metrics.trainers_completed) == EXACT_TRAINERS
    profiled, obs, share = _obs_cost(profiler.profile())
    peak = registry.peak_telemetry_bytes
    save_table("obs_overhead_exact", format_table(
        ["trainers", "profiled (s)", "obs self (s)", "obs share",
         "telemetry peak (B)", "budget (B)", "events observed"],
        [[EXACT_TRAINERS, round(profiled, 3), round(obs, 4),
          f"{share:.3f}", peak, MAX_EXACT_TELEMETRY_BYTES,
          registry.events_observed]],
        title=("registry + boundary sampler, one exact round; one "
               "HostProfiler run"),
    ))
    assert 0 < peak <= MAX_EXACT_TELEMETRY_BYTES, (
        f"peak telemetry {peak} B exceeds the documented budget "
        f"{MAX_EXACT_TELEMETRY_BYTES} B")
    assert 0 <= share <= MAX_EXACT_OBS_SHARE, (
        f"obs share {share:.3f} outside [0, {MAX_EXACT_OBS_SHARE:.2f}]")


def test_overhead_benchmark(benchmark):
    """pytest-benchmark timing of the unobserved configuration."""
    def run():
        session = _make_session()
        session.telemetry.close()
        session.run(rounds=1)

    benchmark(run)
