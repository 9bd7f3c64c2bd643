"""Command-line interface.

Run protocol experiments without writing code::

    python -m repro.cli train --trainers 8 --rounds 3 --verifiable
    python -m repro.cli run --rounds 2 --artifacts out/control
    python -m repro.cli explain out/control out/churn

Subcommands
-----------
``train``
    Run federated training on a synthetic classification task and print
    per-round telemetry (delays, bytes, accuracy).
``providers-sweep``
    The Fig. 1 experiment: merge-and-download delays vs provider count.
``commit-cost``
    The Fig. 3 experiment: SHA-256 vs Pedersen commitment cost by size.
``reproduce``
    Run the paper-figure benchmarks (tables under benchmarks/results/).
``run``
    Run one session under the whole observer stack — flight recorder,
    invariant monitors, metrics registry + resource sampler, anomaly
    watchdog, span collector, JSONL trace, progress heartbeat, host
    profiler — and write the run bundle into ``--artifacts DIR``:
    ``manifest.json``, ``trace.jsonl``, ``timeline.perfetto.json`` and
    ``incidents/`` (pure functions of seed + configuration: a replay
    reproduces them byte for byte), ``report.txt`` (what was printed:
    critical path and stragglers per iteration, the host-profile table,
    violations / anomalies / incidents, the fault-plan line, the
    verdict) and the host-side ``profile.json`` and ``progress.jsonl``.
    ``--plan`` runs it under a fault plan (docs/FAULTS.md), ``--inject``
    seeds a misbehaving aggregator, ``--population`` adds a cohort-
    modeled remainder.  The bundle is written even when the run dies
    mid-round, and the exit status is one rule (``_verdict``; "The run
    bundle" in docs/OBSERVABILITY.md); ``--warn-only`` reports what the
    rule found and exits 0.
``explain``
    Differential run diagnosis over two bundle directories: a ranked
    attribution of what changed — subsystem wall-cost shifts
    (``profile.json``), anomaly kinds that fired in one run only, metric
    regressions and config drift (``manifest.json``); ``--json`` for the
    machine-readable report.
``status``
    Summarize the heartbeats of a live or finished run from a progress
    JSONL file (``DIR/progress.jsonl`` of a bundle, or a ``scale
    --progress`` file): last iteration, sim clock, event rate and
    telemetry peak per label.  Exits non-zero (with a stderr message)
    when the file is missing, unreadable or holds no heartbeats yet, so
    scripts can poll it; ``--json`` prints the latest heartbeat as one
    JSON object under the same exit contract.
``scale``
    Population scaling sweep: run the cohort-modeled scenario at each
    ``--populations`` point, print the wall-clock-per-iteration
    trajectory, optionally write it as a run manifest and diff it
    against a committed baseline (``benchmarks/BENCH_scale.json``)
    with a relative wall-clock threshold (see docs/SCALING.md).
    ``--observe`` attaches the bounded metrics stack and reports its
    peak telemetry memory per point; ``--progress FILE`` streams
    heartbeat JSONL (and a stderr line) while the sweep runs.
``dirshard``
    Directory-sharding sweep: run the cohort-modeled scenario at each
    ``--populations`` x ``--shards`` point and print the sustained
    registrations/sec trajectory (register count over the busiest
    shard's serialized seconds).  Optionally write the manifest and
    diff it against a committed baseline
    (``benchmarks/BENCH_dirshard.json``); per-shard load-share
    counters are always compared warn-only (see docs/SCALING.md).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List, Optional, Tuple

import numpy as np

from .analysis import (
    DEFAULT_DIRSHARD_POPULATIONS,
    DEFAULT_POPULATIONS,
    DEFAULT_SHARD_COUNTS,
    DirshardScenario,
    ScaleScenario,
    diagnose_runs,
    dirshard_manifest,
    format_dirshard_table,
    format_scale_table,
    format_table,
    optimal_providers,
    run_dirshard_sweep,
    run_scale_sweep,
    scale_manifest,
)
from .core import CohortPlan, FLSession, ProtocolConfig
from .core.adversary import (
    AlterUpdateBehavior,
    DropGradientsBehavior,
    LazyBehavior,
    ReplayUpdateBehavior,
)
from .crypto import sha256
from .faults import FaultPlan, RetryPolicy
from .obs import (
    ANOMALY_KINDS,
    AnomalyWatchdog,
    CriticalPathAnalyzer,
    FlightRecorder,
    HostProfile,
    HostProfiler,
    InvariantMonitors,
    JsonlTraceExporter,
    MetricsRegistry,
    PerfettoExporter,
    ProgressReporter,
    ResourceSampler,
    RunManifest,
    SYSTEM_WALL_CLOCK,
    SpanCollector,
    compare_manifests,
    format_heartbeat,
    read_progress,
)
from .core.verification import PartitionCommitter
from .ml import (
    Dataset,
    LogisticRegression,
    SyntheticModel,
    TrainConfig,
    accuracy,
    make_classification,
    split_dirichlet,
    split_iid,
    train_test_split,
)
from .net import NetworkProfile, mbps, megabytes

__all__ = ["main", "build_parser"]

#: ``--inject`` choices: seeded aggregator misbehaviours (fresh
#: instance per run — behaviours keep per-round state).
_INJECTABLE = {
    "drop": lambda: DropGradientsBehavior(keep_fraction=0.5),
    "alter": lambda: AlterUpdateBehavior(offset=1.0),
    "lazy": lambda: LazyBehavior(),
    "replay": lambda: ReplayUpdateBehavior(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Decentralized federated learning over simulated IPFS "
                    "(ICDCS 2022 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser(
        "train", help="run federated training on synthetic data"
    )
    train.add_argument("--trainers", type=int, default=8)
    train.add_argument("--rounds", type=int, default=3)
    train.add_argument("--partitions", type=int, default=4)
    train.add_argument("--aggregators-per-partition", type=int, default=1)
    train.add_argument("--ipfs-nodes", type=int, default=8)
    train.add_argument("--bandwidth-mbps", type=float, default=10.0)
    train.add_argument("--features", type=int, default=16)
    train.add_argument("--samples", type=int, default=1000)
    train.add_argument("--verifiable", action="store_true")
    train.add_argument("--merge-and-download", action="store_true")
    train.add_argument("--providers", type=int, default=0,
                       help="providers per aggregator (0 = sqrt optimum)")
    train.add_argument("--non-iid", action="store_true",
                       help="Dirichlet(0.5) shards instead of IID")
    train.add_argument("--seed", type=int, default=0)

    sweep = subparsers.add_parser(
        "providers-sweep",
        help="Fig. 1: delays vs number of IPFS providers",
    )
    sweep.add_argument("--trainers", type=int, default=16)
    sweep.add_argument("--partition-mb", type=float, default=1.3)
    sweep.add_argument("--bandwidth-mbps", type=float, default=10.0)
    sweep.add_argument("--providers", type=int, nargs="+",
                       default=[1, 2, 4, 8, 16])

    cost = subparsers.add_parser(
        "commit-cost",
        help="Fig. 3: SHA-256 vs Pedersen commitment cost",
    )
    cost.add_argument("--sizes", type=int, nargs="+",
                      default=[1000, 4000])
    cost.add_argument("--curves", nargs="+",
                      default=["secp256k1", "secp256r1"])

    run = subparsers.add_parser(
        "run",
        help="run a session under the whole observer stack and write "
             "the run bundle (manifest, trace, timeline, incidents, "
             "report, host profile, progress); non-zero exit unless "
             "the run was correct",
    )
    run.add_argument("--trainers", type=int, default=4)
    run.add_argument("--rounds", type=int, default=1)
    run.add_argument("--partitions", type=int, default=2)
    run.add_argument("--aggregators-per-partition", type=int, default=1)
    run.add_argument("--ipfs-nodes", type=int, default=4)
    run.add_argument("--bandwidth-mbps", type=float, default=10.0)
    run.add_argument("--params", type=int, default=20_000,
                     help="synthetic model size (flat parameter count)")
    run.add_argument("--merge-and-download", action="store_true")
    run.add_argument("--verifiable", action="store_true")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--providers", type=int, default=0,
                     help="providers per aggregator with "
                          "--merge-and-download (0 = sqrt optimum)")
    run.add_argument("--population", type=int, default=0,
                     help="total trainer population; > 0 attaches a "
                          "cohort plan for the remainder beyond "
                          "--trainers")
    run.add_argument("--cohorts", type=int, default=16,
                     help="statistical cohorts with --population")
    run.add_argument("--plan", default=None,
                     help="fault plan file (JSON always; YAML when "
                          "PyYAML is importable); omit for honest "
                          "infrastructure")
    run.add_argument("--request-timeout", type=float, default=None,
                     help="per-attempt directory request timeout in "
                          "simulated seconds; setting it turns on the "
                          "retry policy (pass one with --plan)")
    run.add_argument("--inject", choices=sorted(_INJECTABLE),
                     default=None,
                     help="seed aggregator-0 with a misbehaviour "
                          "(forces --verifiable; 'replay' runs the "
                          "logistic model over real data, since the "
                          "synthetic model's constant gradients make "
                          "a replayed aggregate value-identical)")
    run.add_argument("--expect-anomaly", action="append", default=[],
                     choices=ANOMALY_KINDS, metavar="KIND",
                     help="an anomaly kind the watchdog must classify "
                          "(repeatable); any kind not listed here "
                          "fails the run, as does a listed kind that "
                          "never fired")
    run.add_argument("--warn-only", action="store_true",
                     help="report problems but exit 0 (a run that "
                          "raised still exits 1)")
    run.add_argument("--artifacts", required=True, metavar="DIR",
                     help="bundle directory (created or overwritten)")

    explain = subparsers.add_parser(
        "explain",
        help="differential run diagnosis: which subsystems, anomalies, "
             "metrics and config keys moved between two run bundles",
    )
    explain.add_argument("base", help="baseline bundle directory")
    explain.add_argument("current", help="candidate bundle directory")
    explain.add_argument("--threshold", type=float, default=0.10,
                         help="relative-change tolerance for the "
                              "metric diff (0.10 = 10%%)")
    explain.add_argument("--json", action="store_true",
                         help="emit the diagnosis as one JSON object")

    scale = subparsers.add_parser(
        "scale",
        help="population scaling sweep (cohort-modeled trainers); "
             "optionally diff against a committed BENCH_scale.json",
    )
    scale.add_argument("--populations", type=int, nargs="+",
                       default=list(DEFAULT_POPULATIONS),
                       help="total trainer populations to sweep")
    scale.add_argument("--sample", type=int, default=16,
                       help="exactly-simulated trainers per point")
    scale.add_argument("--cohorts", type=int, default=16,
                       help="statistical cohorts for the remainder")
    scale.add_argument("--partitions", type=int, default=4)
    scale.add_argument("--params", type=int, default=40_000)
    scale.add_argument("--ipfs-nodes", type=int, default=8)
    scale.add_argument("--bandwidth-mbps", type=float, default=10.0)
    scale.add_argument("--iterations", type=int, default=1,
                       help="simulated rounds per point")
    scale.add_argument("--repeats", type=int, default=1,
                       help="wall-clock repeats per point (min is kept)")
    scale.add_argument("--seed", type=int, default=7)
    scale.add_argument("--output", default=None,
                       help="write the sweep manifest JSON here")
    scale.add_argument("--baseline", default=None,
                       help="committed manifest to diff against "
                            "(e.g. benchmarks/BENCH_scale.json)")
    scale.add_argument("--threshold", type=float, default=0.20,
                       help="relative regression tolerance vs baseline")
    scale.add_argument("--warn-only", action="store_true",
                       help="report regressions but exit 0")
    scale.add_argument("--observe", action="store_true",
                       help="attach the bounded metrics stack (registry "
                            "+ resource sampler) to every point and "
                            "report its cost")
    scale.add_argument("--event-sample-rate", type=float, default=1.0,
                       help="deterministic sampling rate for the "
                            "firehose event families (requires "
                            "--observe to have any effect)")
    scale.add_argument("--progress", default=None, metavar="JSONL",
                       help="stream heartbeat records to this JSONL "
                            "file (and stderr) while the sweep runs")

    dirshard = subparsers.add_parser(
        "dirshard",
        help="directory-sharding sweep (registrations/sec vs shard "
             "count); optionally diff against a committed "
             "BENCH_dirshard.json",
    )
    dirshard.add_argument("--populations", type=int, nargs="+",
                          default=list(DEFAULT_DIRSHARD_POPULATIONS),
                          help="total trainer populations to sweep")
    dirshard.add_argument("--shards", type=int, nargs="+",
                          default=list(DEFAULT_SHARD_COUNTS),
                          help="directory shard counts to sweep "
                               "(1 = the paper's single directory)")
    dirshard.add_argument("--replication", type=int, default=1,
                          help="replicas per key range (capped at the "
                               "shard count)")
    dirshard.add_argument("--placement", default="modulo",
                          choices=["modulo", "consistent-hash"],
                          help="shard placement policy (modulo keeps "
                               "load balanced at every shard count; "
                               "see docs/SCALING.md)")
    dirshard.add_argument("--sample", type=int, default=16,
                          help="exactly-simulated trainers per point")
    dirshard.add_argument("--cohorts", type=int, default=16,
                          help="statistical cohorts for the remainder")
    dirshard.add_argument("--partitions", type=int, default=8)
    dirshard.add_argument("--params", type=int, default=40_000)
    dirshard.add_argument("--ipfs-nodes", type=int, default=8)
    dirshard.add_argument("--bandwidth-mbps", type=float, default=10.0)
    dirshard.add_argument("--processing-delay", type=float, default=2e-5,
                          help="directory serialization seconds per "
                               "request unit (the work sharding divides)")
    dirshard.add_argument("--iterations", type=int, default=1,
                          help="simulated rounds per point")
    dirshard.add_argument("--repeats", type=int, default=1,
                          help="wall-clock repeats per point (min is kept)")
    dirshard.add_argument("--seed", type=int, default=7)
    dirshard.add_argument("--output", default=None,
                          help="write the sweep manifest JSON here")
    dirshard.add_argument("--baseline", default=None,
                          help="committed manifest to diff against "
                               "(e.g. benchmarks/BENCH_dirshard.json)")
    dirshard.add_argument("--threshold", type=float, default=0.20,
                          help="relative regression tolerance vs "
                               "baseline (shard shares are always "
                               "warn-only)")
    dirshard.add_argument("--warn-only", action="store_true",
                          help="report regressions but exit 0")

    status = subparsers.add_parser(
        "status",
        help="summarize the heartbeats of a live or finished run "
             "(a bundle's progress.jsonl or a scale --progress file); "
             "non-zero exit when the file is missing or holds no "
             "heartbeats yet",
    )
    status.add_argument("progress", help="progress JSONL file to read")
    status.add_argument("--tail", type=int, default=1,
                        help="heartbeats to show per label")
    status.add_argument("--json", action="store_true",
                        help="print the latest heartbeat as one JSON "
                             "object instead of the human summary "
                             "(same non-zero exit when there is "
                             "nothing to report)")

    reproduce = subparsers.add_parser(
        "reproduce",
        help="run the paper-figure benchmarks (writes tables under "
             "benchmarks/results/)",
    )
    reproduce.add_argument(
        "--figures", nargs="+", default=["fig1", "fig2", "fig3"],
        choices=["fig1", "fig2", "fig3", "all"],
    )
    return parser


# -- train -----------------------------------------------------------------------


def _run_train(args) -> int:
    data = make_classification(
        num_samples=args.samples, num_features=args.features,
        class_separation=2.5, seed=args.seed,
    )
    train_set, test_set = train_test_split(data, seed=args.seed)
    if args.non_iid:
        shards = split_dirichlet(train_set, args.trainers, alpha=0.5,
                                 seed=args.seed)
    else:
        shards = split_iid(train_set, args.trainers, seed=args.seed)

    config = ProtocolConfig(
        num_partitions=args.partitions,
        aggregators_per_partition=args.aggregators_per_partition,
        t_train=600.0,
        t_sync=1200.0,
        verifiable=args.verifiable,
        merge_and_download=args.merge_and_download,
        providers_per_aggregator=args.providers,
        seed=args.seed,
    )
    config.train = TrainConfig(epochs=2, learning_rate=0.5, batch_size=32)
    session = FLSession(
        config,
        model_factory=lambda: LogisticRegression(
            num_features=args.features, num_classes=2, seed=0),
        datasets=shards,
        network=NetworkProfile(num_ipfs_nodes=args.ipfs_nodes,
                               bandwidth_mbps=args.bandwidth_mbps),
    )
    print(f"{args.trainers} trainers, {args.partitions} partitions x "
          f"{args.aggregators_per_partition} aggregators, "
          f"{args.ipfs_nodes} IPFS nodes @ {args.bandwidth_mbps} Mbps"
          + (", verifiable" if args.verifiable else "")
          + (", merge-and-download" if args.merge_and_download else ""))
    rows = []
    for round_index in range(args.rounds):
        metrics = session.run_iteration()
        rows.append([
            round_index,
            metrics.duration,
            metrics.aggregation_delay,
            metrics.mean_upload_delay,
            len(metrics.trainers_completed),
            accuracy(session.model_of(0), test_set),
        ])
    print(format_table(
        ["round", "duration (s)", "agg delay (s)", "upload (s)",
         "completed", "accuracy"],
        rows,
    ))
    session.consensus_params()
    print("all trainers hold the identical global model")
    return 0


# -- providers-sweep ---------------------------------------------------------------


def _run_providers_sweep(args) -> int:
    partition_params = int(megabytes(args.partition_mb) / 8)
    shards = [
        Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
        for index in range(args.trainers)
    ]
    rows = []
    for providers in args.providers:
        config = ProtocolConfig(
            num_partitions=1,
            t_train=3600.0,
            t_sync=7200.0,
            merge_and_download=True,
            providers_per_aggregator=providers,
            update_mode="gradient",
            poll_interval=0.25,
        )
        session = FLSession(
            config,
            model_factory=lambda: SyntheticModel(partition_params),
            datasets=shards,
            network=NetworkProfile(num_ipfs_nodes=max(args.providers),
                                   bandwidth_mbps=args.bandwidth_mbps),
        )
        metrics = session.run_iteration()
        rows.append([
            providers,
            metrics.mean_upload_delay,
            metrics.aggregation_delay,
            metrics.end_to_end_delay,
        ])
    print(format_table(
        ["providers", "upload (s)", "aggregation (s)", "end-to-end (s)"],
        rows,
        title=f"{args.trainers} trainers, {args.partition_mb} MB "
              f"partition, {args.bandwidth_mbps} Mbps",
    ))
    bandwidth = mbps(args.bandwidth_mbps)
    p_star = optimal_providers(args.trainers, node_bandwidth=bandwidth,
                               aggregator_bandwidth=bandwidth)
    print(f"\nanalytic optimum sqrt(b*T/d) = {p_star:.1f} providers")
    return 0


# -- commit-cost ---------------------------------------------------------------------


def _run_commit_cost(args, clock=SYSTEM_WALL_CLOCK) -> int:
    rng = np.random.default_rng(0)
    rows = []
    for size in args.sizes:
        vector = rng.normal(size=size)
        started = clock.seconds()
        sha256(vector.tobytes())
        hash_seconds = clock.seconds() - started
        row = [size, hash_seconds]
        for curve in args.curves:
            committer = PartitionCommitter(partition_len=size, curve=curve)
            started = clock.seconds()
            committer.encode_and_commit(vector)
            row.append(clock.seconds() - started)
        rows.append(row)
    print(format_table(
        ["params", "sha256 (s)"] + [f"{curve} (s)" for curve in args.curves],
        rows,
        title="commitment cost by model size",
    ))
    return 0


# -- run -----------------------------------------------------------------------------


def _build_run_session(args, plan: FaultPlan) -> Tuple[FLSession, int]:
    """The session ``run`` observes and how many rounds to drive it,
    after the ``--inject`` adjustments."""
    verifiable = args.verifiable
    rounds = args.rounds
    behaviors = None
    datasets = [
        Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
        for index in range(args.trainers)
    ]
    model_factory = lambda: SyntheticModel(args.params)  # noqa: E731
    if args.inject is not None:
        behaviors = {"aggregator-0": _INJECTABLE[args.inject]()}
        if not verifiable:
            verifiable = True  # detection needs commitments
            print("--inject forces --verifiable", file=sys.stderr)
        if args.inject == "replay":
            # A replayed aggregate is only distinguishable when the
            # gradients change between rounds; the synthetic model's
            # are constant, so run the logistic model on real data.
            data = make_classification(
                num_samples=200, num_features=8,
                class_separation=3.0, seed=args.seed,
            )
            datasets = split_iid(data, args.trainers, seed=args.seed)
            model_factory = lambda: LogisticRegression(  # noqa: E731
                num_features=8, num_classes=2, seed=0)
            if rounds < 2:
                rounds = 2  # round 0 has nothing to replay
                print("--inject replay needs 2 rounds; running 2",
                      file=sys.stderr)
    config = ProtocolConfig(
        num_partitions=args.partitions,
        aggregators_per_partition=args.aggregators_per_partition,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=0.25,
        verifiable=verifiable,
        merge_and_download=args.merge_and_download,
        providers_per_aggregator=args.providers,
        seed=args.seed,
    )
    network = NetworkProfile(
        num_ipfs_nodes=args.ipfs_nodes,
        bandwidth_mbps=args.bandwidth_mbps,
        directory_request_timeout=args.request_timeout,
        retry=RetryPolicy() if args.request_timeout is not None else None,
    )
    cohort = None
    if args.population > 0:
        cohort = CohortPlan(population=args.population,
                            cohorts=args.cohorts, seed=args.seed)
    session = FLSession(
        config,
        model_factory=model_factory,
        datasets=datasets,
        network=network,
        faults=plan,
        behaviors=behaviors,
        cohort=cohort,
    )
    return session, rounds


class _ObserverStack:
    """Every observer ``run`` attaches — the one place that knows the
    subscription order.

    The flight recorder subscribes first: the monitors and the watchdog
    publish ``InvariantViolated`` / ``AnomalyDetected`` from inside
    their own handlers, and the recorder's ring must already hold the
    event that triggered them when that nested publish reaches its seal
    check.  Nothing else depends on order.  The profiler starts last,
    so its window is the rounds and nothing else.
    """

    def __init__(self, session: FLSession, directory: str, clock):
        bus = session.sim.bus
        self.recorder = FlightRecorder(bus)
        self.monitors = InvariantMonitors(bus)
        self.registry = MetricsRegistry(bus)
        self.sampler = ResourceSampler.for_session(session, self.registry)
        self.watchdog = AnomalyWatchdog.for_session(session,
                                                    wall_clock=clock)
        self.spans = SpanCollector(bus)
        self.trace = JsonlTraceExporter(
            bus, os.path.join(directory, "trace.jsonl"))
        # Opened here, not by the reporter (which appends): a bundle
        # holds one run.
        self._heartbeats = open(os.path.join(directory, "progress.jsonl"),
                                "w", encoding="utf-8")
        self.progress = ProgressReporter(
            bus, registry=self.registry, recorder=self.recorder,
            watchdog=self.watchdog, stream=None, jsonl=self._heartbeats,
            clock=clock)
        self.profiler = HostProfiler(clock).install(session.sim)

    def detach(self, session: FLSession, completed: bool) -> list:
        """Stop everything, flush the streamed files and return the
        run's invariant violations."""
        self.profiler.uninstall()
        self.sampler.stop()
        self.watchdog.finalize()
        if completed:
            # Evict every finished round's objects first, so the
            # end-of-run leak check only flags storage the protocol
            # truly abandoned (a crashed trainer's orphaned upload is
            # reclaimed by GC, not a leak).
            session.collect_garbage(keep_iterations=0)
        violations = self.monitors.finalize()
        self.recorder.close()
        self.spans.close()
        self.registry.close()
        self.progress.close()
        self._heartbeats.close()
        self.trace.close()
        return violations


def _verdict(args, session: FLSession, failure, violations, stack,
             retries_exhausted: int) -> Tuple[List[str], List[str]]:
    """The one exit-code rule: the final round's survivors and every
    reason this run does not count as correct."""
    problems: List[str] = []
    if failure is not None:
        problems.append(f"the run raised {failure!r}")
    final = (session.metrics.iterations[-1]
             if session.metrics.iterations else None)
    survivors = list(final.trainers_completed) if final is not None else []
    if not survivors:
        problems.append("no trainer completed the final round")
    else:
        by_name = {trainer.name: trainer for trainer in session.trainers}
        reference = by_name[survivors[0]].model.get_params()
        diverged = [
            name for name in survivors[1:]
            if not np.allclose(by_name[name].model.get_params(),
                               reference, atol=1e-9)
        ]
        if diverged:
            problems.append("surviving trainers diverged: "
                            + ", ".join(diverged))
    if violations:
        problems.append(f"{len(violations)} invariant violation(s)")
    rejected = sum(bundle.kind == "verification_failed"
                   for bundle in stack.recorder.incidents)
    if rejected:
        problems.append(f"{rejected} verification failure(s)")
    kinds = stack.watchdog.kinds()
    unexpected = [kind for kind in kinds if kind not in args.expect_anomaly]
    if unexpected:
        problems.append("unexpected anomaly kind(s): "
                        + ", ".join(unexpected))
    missing = [kind for kind in args.expect_anomaly if kind not in kinds]
    if missing:
        problems.append("expected anomaly kind(s) not detected: "
                        + ", ".join(missing))
    if retries_exhausted and not args.plan:
        # Only a fault plan can excuse it: honest infrastructure must
        # never exhaust a retry budget.
        problems.append(f"{retries_exhausted} retry budget(s) exhausted "
                        "with no fault plan")
    return survivors, problems


def _write_bundle(args, plan: FaultPlan, session: FLSession, failure,
                  violations, stack: _ObserverStack) -> Tuple[str, bool]:
    """Write the bundle's files; returns the report (also written as
    ``report.txt``) and whether the run was correct."""
    directory = args.artifacts
    recorder, registry = stack.recorder, stack.registry
    watchdog = stack.watchdog
    fingerprint = session.fingerprint()
    RunManifest.collect(registry, fingerprint).write(
        os.path.join(directory, "manifest.json"))
    trees = stack.spans.trees
    timeline = PerfettoExporter(trees[i] for i in sorted(trees))
    timeline.add_anomalies(watchdog.anomalies)
    timeline.write(os.path.join(directory, "timeline.perfetto.json"))
    for index, bundle in enumerate(recorder.incidents):
        bundle.write(os.path.join(
            directory, "incidents",
            f"incident-{index:02d}-i{bundle.iteration}-{bundle.kind}.json"))
    profile = stack.profiler.profile(fingerprint=fingerprint)
    profile.write(os.path.join(directory, "profile.json"))

    counters = registry.counters.snapshot()
    retries_exhausted = int(counters.get("protocol.retries_exhausted", 0))
    survivors, problems = _verdict(args, session, failure, violations,
                                   stack, retries_exhausted)

    lines = [f"run: {len(session.trainers)} trainers, {args.partitions} "
             f"partitions x {args.aggregators_per_partition} aggregators, "
             f"{args.ipfs_nodes} IPFS nodes @ {args.bandwidth_mbps:g} "
             f"Mbps, seed {args.seed}, config "
             f"{fingerprint['digest'][:12]}", ""]
    analyzer = CriticalPathAnalyzer(stack.spans)
    for iteration in analyzer.iterations():
        path = analyzer.analyze(iteration)
        if path is None:
            lines += [f"iteration {iteration}: no critical path "
                      "(no aggregation completed)", ""]
            continue
        lines.append(path.format())
        stragglers = analyzer.straggler_report(iteration)
        if stragglers is not None and stragglers.entries:
            lines.append(stragglers.format())
        lines.append("")
    lines += [profile.format(), ""]
    histograms = registry.histograms().values()
    lines.append(
        f"bundle {directory}: {stack.trace.events_written} events -> "
        f"trace.jsonl; {len(trees)} iteration(s) -> "
        "timeline.perfetto.json (open in ui.perfetto.dev); "
        f"{sum(h.count for h in histograms)} observations across "
        f"{sum(1 for h in histograms if h.count)} histograms, "
        f"{stack.sampler.samples_taken} resource samples -> "
        f"manifest.json; {len(recorder.incidents)} incident(s) -> "
        "incidents/")
    for violation in violations:
        lines.append(f"VIOLATION [{violation.invariant}] "
                     f"{violation.subject}: {violation.detail}")
    for anomaly in watchdog.anomalies:
        evidence = " ".join(
            f"{key}={value}" for key, value in anomaly.evidence)
        lines.append(f"ANOMALY [{anomaly.kind}/{anomaly.severity}] "
                     f"t={anomaly.at:.3f} iter={anomaly.iteration} "
                     f"{anomaly.detector}: {evidence}")
    lines.append("watchdog: no anomalies" if not watchdog.anomalies else
                 "watchdog: " + ", ".join(
                     f"{kind}={count}" for kind, count
                     in watchdog.summary().items()))
    lines += [bundle.summary() for bundle in recorder.incidents]
    if recorder.suppressed:
        lines.append(f"({recorder.suppressed} further incident(s) "
                     "suppressed)")
    lines.append(
        f"plan: {len(plan)} spec(s) (seed {plan.seed}), "
        f"{int(counters.get('faults.injected', 0))} injected, "
        f"{int(counters.get('faults.healed', 0))} healed; "
        f"{int(counters.get('protocol.participants_degraded', 0))} "
        f"participant-round(s) degraded, "
        f"{int(counters.get('net.transfers_aborted', 0))} transfer(s) "
        f"aborted, {retries_exhausted} retry budget(s) exhausted")
    if survivors:
        lines.append(f"{len(survivors)}/{len(session.trainers)} trainers "
                     "completed the final round"
                     + ("" if problems else " in consensus"))
    lines.append("run clean" if not problems
                 else "run FAILED: " + "; ".join(problems))
    report = "\n".join(lines) + "\n"
    with open(os.path.join(directory, "report.txt"), "w",
              encoding="utf-8") as stream:
        stream.write(report)
    return report, not problems


def _run_run(args, clock=SYSTEM_WALL_CLOCK) -> int:
    plan = FaultPlan.load(args.plan) if args.plan else FaultPlan()
    session, rounds = _build_run_session(args, plan)
    incidents = os.path.join(args.artifacts, "incidents")
    os.makedirs(incidents, exist_ok=True)
    for stale in glob.glob(os.path.join(incidents, "incident-*.json")):
        os.remove(stale)  # a bundle holds one run
    stack = _ObserverStack(session, args.artifacts, clock)
    failure = None
    completed = False
    try:
        session.run(rounds=rounds)
        completed = True
    except Exception as exc:
        failure = exc
    finally:
        # Whatever ended the run — the last round, an exception, ^C —
        # the bundle is written, so every file in it parses.
        violations = stack.detach(session, completed)
        report, correct = _write_bundle(args, plan, session, failure,
                                        violations, stack)
    print(report, end="")
    if failure is not None:
        print(f"run failed: {failure!r} (partial bundle kept)",
              file=sys.stderr)
        return 1
    return 0 if correct or args.warn_only else 1


def _run_scale(args, clock=SYSTEM_WALL_CLOCK) -> int:
    scenario = ScaleScenario(
        exact_trainers=args.sample,
        cohorts=args.cohorts,
        num_partitions=args.partitions,
        model_params=args.params,
        num_ipfs_nodes=args.ipfs_nodes,
        bandwidth_mbps=args.bandwidth_mbps,
        iterations=args.iterations,
        seed=args.seed,
        observed=args.observe,
        event_sample_rate=args.event_sample_rate,
    )
    progress_stream = sys.stderr if args.progress else None
    points = run_scale_sweep(args.populations, scenario,
                             repeats=args.repeats,
                             progress_jsonl=args.progress,
                             progress_stream=progress_stream, clock=clock)
    print(format_scale_table(
        points,
        title=f"Scaling in population ({scenario.exact_trainers} exact "
              f"trainers, {scenario.cohorts} cohorts, "
              f"{scenario.bandwidth_mbps:g} Mbps)",
    ))
    manifest = scale_manifest(points, scenario)
    if args.output:
        manifest.write(args.output)
        print(f"manifest written to {args.output}")
    if args.baseline:
        baseline = RunManifest.load(args.baseline)
        diff = compare_manifests(baseline, manifest,
                                 threshold=args.threshold)
        print(diff.format())
        if diff.has_regressions and not args.warn_only:
            return 1
    return 0


def _run_dirshard(args, clock=SYSTEM_WALL_CLOCK) -> int:
    scenario = DirshardScenario(
        exact_trainers=args.sample,
        cohorts=args.cohorts,
        num_partitions=args.partitions,
        model_params=args.params,
        num_ipfs_nodes=args.ipfs_nodes,
        bandwidth_mbps=args.bandwidth_mbps,
        iterations=args.iterations,
        seed=args.seed,
        replication=args.replication,
        placement=args.placement,
        processing_delay=args.processing_delay,
    )
    points = run_dirshard_sweep(args.populations, args.shards,
                                scenario=scenario, repeats=args.repeats,
                                clock=clock)
    print(format_dirshard_table(
        points,
        title=f"Directory sharding ({scenario.placement} placement, "
              f"replication {scenario.replication}, "
              f"{scenario.processing_delay:g}s/unit serialization)",
    ))
    manifest = dirshard_manifest(points, scenario)
    if args.output:
        manifest.write(args.output)
        print(f"manifest written to {args.output}")
    if args.baseline:
        baseline = RunManifest.load(args.baseline)
        # Two counter families never gate: load shares (they move
        # whenever the shard list or placement changes, which the
        # fingerprint already guards) and regs_per_sec (higher is
        # *better* there, while the manifest diff treats growth as the
        # regression direction — max_busy_seconds, its exact inverse
        # dividend, carries the throughput gate instead).
        keys = set(manifest.counters) | set(baseline.counters)
        diff = compare_manifests(
            baseline, manifest, threshold=args.threshold,
            thresholds={k: float("inf") for k in keys
                        if ".share." in k or k.endswith(".regs_per_sec")},
        )
        print(diff.format())
        if diff.has_regressions and not args.warn_only:
            return 1
    return 0


def _run_status(args) -> int:
    try:
        records = read_progress(args.progress)
    except FileNotFoundError:
        print(f"status: progress file not found: {args.progress}",
              file=sys.stderr)
        return 1
    except OSError as error:
        print(f"status: cannot read progress file: {error}",
              file=sys.stderr)
        return 1
    if not records:
        print(f"status: no heartbeats in {args.progress} (yet)",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(records[-1], sort_keys=True))
        return 0
    by_label = {}
    for record in records:
        by_label.setdefault(record.get("label") or "run", []).append(record)
    tail = max(args.tail, 1)
    for label, beats in by_label.items():
        for record in beats[-tail:]:
            print(format_heartbeat(record))
    latest = records[-1]
    peak = latest.get("peak_telemetry_bytes")
    summary = (f"{len(records)} heartbeat(s), {len(by_label)} label(s); "
               f"latest: iteration {latest.get('iteration', -1)} at "
               f"sim t={latest.get('sim_seconds', 0.0):.1f}s, "
               f"{latest.get('events', 0)} events")
    if peak is not None:
        summary += f", telemetry peak {peak / 1024.0:.1f} KiB"
    print(summary)
    return 0


def _run_explain(args) -> int:
    try:
        manifests = [RunManifest.load(os.path.join(bundle, "manifest.json"))
                     for bundle in (args.base, args.current)]
        profiles = [HostProfile.load(os.path.join(bundle, "profile.json"))
                    for bundle in (args.base, args.current)]
        report = diagnose_runs(
            base_manifest=manifests[0], current_manifest=manifests[1],
            base_profile=profiles[0], current_profile=profiles[1],
            threshold=args.threshold,
        )
    except (OSError, ValueError) as error:  # ValueError: not that JSON
        print(f"explain: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, default=str))
    else:
        print(report.format())
    return 0


def _run_reproduce(args) -> int:
    import pytest as pytest_module
    targets = {
        "fig1": "test_fig1_providers.py",
        "fig2": "test_fig2_aggregators.py",
        "fig3": "test_fig3_commitments.py",
    }
    figures = args.figures
    if "all" in figures:
        selection = None  # the whole benchmarks directory
    else:
        selection = [targets[figure] for figure in figures]
    bench_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))),
        "benchmarks",
    )
    if not os.path.isdir(bench_dir):
        print("benchmarks/ directory not found next to the package; "
              "run from a source checkout")
        return 1
    paths = ([bench_dir] if selection is None
             else [os.path.join(bench_dir, name) for name in selection])
    return pytest_module.main(paths + ["--benchmark-only", "-q"])


_COMMANDS = {
    "train": _run_train,
    "providers-sweep": _run_providers_sweep,
    "commit-cost": _run_commit_cost,
    "reproduce": _run_reproduce,
    "run": _run_run,
    "explain": _run_explain,
    "status": _run_status,
    "scale": _run_scale,
    "dirshard": _run_dirshard,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
