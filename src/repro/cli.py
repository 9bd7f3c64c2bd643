"""Command-line interface.

Run protocol experiments without writing code::

    python -m repro.cli train --trainers 8 --rounds 3 --verifiable
    python -m repro.cli providers-sweep --trainers 16
    python -m repro.cli commit-cost --sizes 1000 4000

Subcommands
-----------
``train``
    Run federated training on a synthetic classification task and print
    per-round telemetry (delays, bytes, accuracy).
``providers-sweep``
    The Fig. 1 experiment: merge-and-download delays vs provider count.
``commit-cost``
    The Fig. 3 experiment: SHA-256 vs Pedersen commitment cost by size.
``trace``
    Run a session with the event-bus trace exporter attached and write
    every event as one JSON line (see docs/OBSERVABILITY.md), plus a
    counter summary to stderr.
``timeline``
    Run a session, reconstruct per-iteration span trees and write a
    Perfetto / Chrome trace-event JSON timeline (open the file in
    ui.perfetto.dev).
``critical-path``
    Run a session and print each iteration's critical-path
    decomposition and straggler ranking.
``metrics``
    Run a session with the metrics registry and resource sampler
    attached; print the OpenMetrics exposition and (optionally) write a
    JSON run manifest.
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
``status``
    Summarize the heartbeats of a live or finished run from a
    ``--progress`` JSONL file: last iteration, sim clock, event rate
    and telemetry peak per label.  Exits non-zero (with a stderr
    message) when the file is missing, unreadable or holds no
    heartbeats yet, so scripts can poll it; ``--json`` prints the
    latest heartbeat as one machine-readable JSON object under the
    same exit contract.
``profile``
    Run a session under the host-cost profiler (cProfile folded by
    package) and print where the *wall* clock went: exclusive time per
    function, the share of each ``repro`` package and the
    sim-seconds-per-wall-second throughput gauge (see
    docs/OBSERVABILITY.md).  ``--output`` writes the JSON profile
    artifact, ``--perfetto`` a slice trace for ui.perfetto.dev.  Two
    profiles are compared with ``explain --profile-base A
    --profile-current B``.
``compare``
    Diff two run manifests with a relative-change threshold; exits
    non-zero when a metric regressed (use ``--warn-only`` in advisory
    contexts like a new CI baseline).
``explain``
    Differential run diagnosis: given two runs' artifacts (a
    RunManifest and/or HostProfile JSON per side, type sniffed from
    the file), print a ranked attribution of what changed — subsystem
    wall-cost shifts, anomaly kinds that fired in one run only, metric
    regressions and config drift (``--json`` for the machine-readable
    report; see docs/OBSERVABILITY.md).
``audit``
    Run a session with the invariant monitors and flight recorder
    attached; print every invariant violation and sealed incident and
    exit non-zero when any fired (``--warn-only`` to report without
    failing).  ``--inject`` seeds a misbehaving aggregator to prove the
    pipeline catches it.
``incidents``
    Run a seeded-adversary session and write each sealed incident
    bundle (event window, span chain, blame report, Perfetto slice) as
    JSON — the forensics artifact a failed audit would leave behind.
``chaos``
    Run a session under a deterministic fault plan (crashes, link
    outages, directory brown-outs, message loss — see docs/FAULTS.md)
    with the invariant monitors and flight recorder attached; exit
    non-zero when the surviving trainers fail to converge or any
    invariant fired.  Without ``--plan`` it is the honest-infrastructure
    control run (pair with ``--forbid-retry-exhausted`` in CI).
    ``--watch`` attaches the online anomaly watchdog
    (:mod:`repro.obs.anomaly`); ``--expect-anomaly KIND`` fails the run
    unless that kind was classified, ``--forbid-anomalies`` fails it if
    anything fired.

The trace-family subcommands (``trace``/``timeline``/``critical-path``/
``metrics``) share the same session knobs and flush their output even
when the run fails mid-round (the partial timeline is exactly what you
want for debugging that failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

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
    load_run_artifact,
    optimal_providers,
    run_dirshard_sweep,
    run_scale_sweep,
    scale_manifest,
)
from .core import FLSession, ProtocolConfig
from .core.adversary import (
    AlterUpdateBehavior,
    DropGradientsBehavior,
    LazyBehavior,
    ReplayUpdateBehavior,
)
from .crypto import sha256
from .faults import FaultPlan, RetryPolicy
from .obs import (
    AnomalyWatchdog,
    CountersRegistry,
    CriticalPathAnalyzer,
    FlightRecorder,
    HostProfiler,
    InvariantMonitors,
    JsonlTraceExporter,
    MetricsRegistry,
    PerfettoExporter,
    ResourceSampler,
    RunManifest,
    SYSTEM_WALL_CLOCK,
    SpanCollector,
    compare_manifests,
    format_heartbeat,
    read_progress,
    render_openmetrics,
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

    def add_trace_session_args(sub) -> None:
        """Session knobs shared by trace/timeline/critical-path."""
        sub.add_argument("--trainers", type=int, default=4)
        sub.add_argument("--rounds", type=int, default=1)
        sub.add_argument("--partitions", type=int, default=2)
        sub.add_argument("--aggregators-per-partition", type=int, default=1)
        sub.add_argument("--ipfs-nodes", type=int, default=4)
        sub.add_argument("--bandwidth-mbps", type=float, default=10.0)
        sub.add_argument("--params", type=int, default=20_000,
                         help="synthetic model size (flat parameter count)")
        sub.add_argument("--merge-and-download", action="store_true")
        sub.add_argument("--verifiable", action="store_true")
        sub.add_argument("--seed", type=int, default=0)

    trace = subparsers.add_parser(
        "trace",
        help="run a session and export its event timeline as JSONL",
    )
    trace.add_argument("--output", default="-",
                       help="destination file ('-' = stdout)")
    add_trace_session_args(trace)

    timeline = subparsers.add_parser(
        "timeline",
        help="run a session and export a Perfetto span timeline "
             "(open in ui.perfetto.dev)",
    )
    timeline.add_argument("--output", default="-",
                          help="destination file ('-' = stdout)")
    add_trace_session_args(timeline)

    critical = subparsers.add_parser(
        "critical-path",
        help="run a session and print each iteration's critical-path "
             "decomposition and straggler ranking",
    )
    critical.add_argument("--straggler-threshold", type=float, default=0.0,
                          help="slack (sim-seconds) within which a "
                               "participant counts as a straggler")
    add_trace_session_args(critical)

    metrics = subparsers.add_parser(
        "metrics",
        help="run a session and export aggregated metrics "
             "(OpenMetrics text + JSON run manifest)",
    )
    metrics.add_argument("--output", default="-",
                         help="OpenMetrics destination ('-' = stdout)")
    metrics.add_argument("--manifest", default=None,
                         help="also write a JSON run manifest here")
    metrics.add_argument("--sample-interval", type=float, default=0.25,
                         help="resource-sampler period (simulated "
                              "seconds)")
    add_trace_session_args(metrics)

    compare = subparsers.add_parser(
        "compare",
        help="diff two run manifests; non-zero exit on regression",
    )
    compare.add_argument("baseline", help="baseline manifest JSON")
    compare.add_argument("current", help="candidate manifest JSON")
    compare.add_argument("--threshold", type=float, default=0.10,
                         help="relative-change tolerance (0.10 = 10%%)")
    compare.add_argument("--warn-only", action="store_true",
                         help="report regressions but exit 0")

    explain = subparsers.add_parser(
        "explain",
        help="differential run diagnosis: which subsystems, anomalies, "
             "metrics and config keys moved between two runs (each "
             "side a RunManifest or HostProfile JSON, sniffed by "
             "shape)",
    )
    explain.add_argument("base",
                         help="baseline artifact (RunManifest or "
                              "HostProfile JSON)")
    explain.add_argument("current",
                         help="candidate artifact (RunManifest or "
                              "HostProfile JSON)")
    explain.add_argument("--profile-base", default=None,
                         help="baseline HostProfile JSON, when the "
                              "positional is a manifest")
    explain.add_argument("--profile-current", default=None,
                         help="candidate HostProfile JSON, when the "
                              "positional is a manifest")
    explain.add_argument("--threshold", type=float, default=0.10,
                         help="relative-change tolerance for the "
                              "metric diff (0.10 = 10%%)")
    explain.add_argument("--json", action="store_true",
                         help="emit the diagnosis as one JSON object")

    audit = subparsers.add_parser(
        "audit",
        help="run a session under the invariant monitors and flight "
             "recorder; non-zero exit on any violation or incident",
    )
    add_trace_session_args(audit)
    audit.add_argument("--providers", type=int, default=0,
                       help="providers per aggregator with "
                            "--merge-and-download (0 = sqrt optimum)")
    audit.add_argument("--inject", choices=sorted(_INJECTABLE),
                       default=None,
                       help="seed aggregator-0 with a misbehaviour "
                            "(forces --verifiable; 'replay' runs the "
                            "logistic model over real data, since the "
                            "synthetic model's constant gradients make "
                            "a replayed aggregate value-identical)")
    audit.add_argument("--warn-only", action="store_true",
                       help="report violations/incidents but exit 0")
    audit.add_argument("--incidents-dir", default=None,
                       help="also write sealed incident bundles (JSON) "
                            "into this directory")

    incidents = subparsers.add_parser(
        "incidents",
        help="run a seeded-adversary session and write its incident "
             "bundles as JSON",
    )
    add_trace_session_args(incidents)
    incidents.add_argument("--inject", choices=sorted(_INJECTABLE),
                           default="drop",
                           help="the misbehaviour to seed (see audit)")
    incidents.add_argument("--output-dir", default="incidents",
                           help="directory for the bundle JSON files")

    chaos = subparsers.add_parser(
        "chaos",
        help="run a session under a fault plan with the monitors and "
             "flight recorder attached; non-zero exit on "
             "non-convergence or any invariant violation",
    )
    add_trace_session_args(chaos)
    chaos.add_argument("--plan", default=None,
                       help="fault plan file (JSON always; YAML when "
                            "PyYAML is importable); omit for the "
                            "honest-infrastructure control run")
    chaos.add_argument("--request-timeout", type=float, default=5.0,
                       help="per-attempt directory request timeout in "
                            "simulated seconds (default 5.0)")
    chaos.add_argument("--manifest", default=None,
                       help="write a JSON run manifest here (two runs "
                            "of the same seeded plan produce identical "
                            "manifests)")
    chaos.add_argument("--incidents-dir", default=None,
                       help="write sealed incident bundles (JSON) into "
                            "this directory")
    chaos.add_argument("--forbid-retry-exhausted", action="store_true",
                       help="fail if any retry budget was exhausted "
                            "(the CI control-run tripwire: honest "
                            "infrastructure must never exhaust "
                            "retries)")
    chaos.add_argument("--warn-only", action="store_true",
                       help="report problems but exit 0")
    chaos.add_argument("--watch", action="store_true",
                       help="attach the anomaly watchdog (online "
                            "detectors: retry storms, throughput "
                            "collapse, queue runaway, sim stall, "
                            "convergence); anomalies seal incident "
                            "bundles and are summarized at the end")
    chaos.add_argument("--expect-anomaly", action="append",
                       default=None, metavar="KIND",
                       help="fail unless the watchdog classified this "
                            "anomaly kind (repeatable; implies "
                            "--watch) — the CI chaos-detection gate")
    chaos.add_argument("--forbid-anomalies", action="store_true",
                       help="fail if the watchdog classified any "
                            "anomaly (implies --watch) — the control-"
                            "run false-positive tripwire")

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
             "(reads a --progress JSONL file); non-zero exit when the "
             "file is missing or holds no heartbeats yet",
    )
    status.add_argument("progress", help="progress JSONL file to read")
    status.add_argument("--tail", type=int, default=1,
                        help="heartbeats to show per label")
    status.add_argument("--json", action="store_true",
                        help="print the latest heartbeat as one JSON "
                             "object instead of the human summary "
                             "(same non-zero exit when there is "
                             "nothing to report)")

    profile = subparsers.add_parser(
        "profile",
        help="run a session under the host-cost profiler; print the "
             "wall-clock hotspot report",
    )
    add_trace_session_args(profile)
    profile.add_argument("--providers", type=int, default=0,
                         help="providers per aggregator with "
                              "--merge-and-download (0 = sqrt optimum)")
    profile.add_argument("--population", type=int, default=0,
                         help="total trainer population; > 0 attaches "
                              "a cohort plan so the cohort-modeled "
                              "remainder is profiled too")
    profile.add_argument("--cohorts", type=int, default=16,
                         help="statistical cohorts with --population")
    profile.add_argument("--observe", action="store_true",
                         help="attach the metrics registry so the "
                              "telemetry cost shows up in the obs "
                              "subsystem")
    profile.add_argument("--top", type=int, default=12,
                         help="functions to list in the hotspot table")
    profile.add_argument("--output", default=None,
                         help="write the JSON profile artifact here")
    profile.add_argument("--perfetto", default=None,
                         help="write a Perfetto slice trace here "
                              "(open in ui.perfetto.dev)")

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


# -- trace / timeline / critical-path ----------------------------------------------


def _build_trace_session(args, behaviors=None, model_factory=None,
                         datasets=None, faults=None,
                         cohort=None) -> FLSession:
    """The shared session the trace-family subcommands run.

    ``behaviors``/``model_factory``/``datasets`` let the audit-family
    subcommands seed adversaries or swap in a real model; the
    trace-family callers use the synthetic defaults.  ``faults`` is the
    chaos subcommand's :class:`~repro.faults.FaultPlan`; chaos also
    defines ``args.request_timeout``, which bounds directory requests
    and turns on the shared retry policy even for its control run.
    ``cohort`` is the profile subcommand's
    :class:`~repro.core.CohortPlan` for population-scale runs.
    """
    config = ProtocolConfig(
        num_partitions=args.partitions,
        aggregators_per_partition=args.aggregators_per_partition,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=0.25,
        verifiable=args.verifiable,
        merge_and_download=args.merge_and_download,
        providers_per_aggregator=getattr(args, "providers", 0),
        seed=args.seed,
    )
    if datasets is None:
        datasets = [
            Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
            for index in range(args.trainers)
        ]
    if model_factory is None:
        model_factory = lambda: SyntheticModel(args.params)  # noqa: E731
    request_timeout = getattr(args, "request_timeout", None)
    profile = NetworkProfile(
        num_ipfs_nodes=args.ipfs_nodes,
        bandwidth_mbps=args.bandwidth_mbps,
        directory_request_timeout=request_timeout,
        retry=RetryPolicy() if request_timeout is not None else None,
    )
    return FLSession(
        config,
        model_factory=model_factory,
        datasets=datasets,
        network=profile,
        faults=faults,
        behaviors=behaviors,
        cohort=cohort,
    )


def _run_rounds(session: FLSession, rounds: int) -> Optional[BaseException]:
    """Run ``rounds`` iterations, capturing (not raising) a failure so
    callers can flush whatever the run produced before reporting it."""
    try:
        session.run(rounds=rounds)
    except Exception as exc:
        return exc
    return None


def _report_failure(failure: Optional[BaseException]) -> int:
    if failure is None:
        return 0
    print(f"run failed: {failure!r} (partial output kept)",
          file=sys.stderr)
    return 1


def _run_trace(args) -> int:
    session = _build_trace_session(args)
    counters = CountersRegistry(session.sim.bus)
    destination = sys.stdout if args.output == "-" else args.output
    # The context manager closes/flushes the exporter even when the run
    # dies mid-round, so the timeline file stays valid JSONL.
    with JsonlTraceExporter(session.sim.bus, destination) as exporter:
        failure = _run_rounds(session, args.rounds)
        events_written = exporter.events_written
    print(f"{events_written} events"
          + ("" if args.output == "-" else f" -> {args.output}"),
          file=sys.stderr)
    for name, value in counters.snapshot().items():
        print(f"{name:44s} {value:g}", file=sys.stderr)
    return _report_failure(failure)


def _run_timeline(args) -> int:
    session = _build_trace_session(args)
    collector = SpanCollector(session.sim.bus)
    try:
        failure = _run_rounds(session, args.rounds)
    finally:
        collector.close()
    exporter = PerfettoExporter(
        collector.trees[iteration] for iteration in sorted(collector.trees)
    )
    if args.output == "-":
        exporter.write(sys.stdout)
        sys.stdout.write("\n")
    else:
        exporter.write(args.output)
    print(f"{len(collector.trees)} iteration(s)"
          + ("" if args.output == "-"
             else f" -> {args.output} (open in ui.perfetto.dev)"),
          file=sys.stderr)
    return _report_failure(failure)


def _run_critical_path(args) -> int:
    session = _build_trace_session(args)
    collector = SpanCollector(session.sim.bus)
    try:
        failure = _run_rounds(session, args.rounds)
    finally:
        collector.close()
    analyzer = CriticalPathAnalyzer(collector)
    for iteration in analyzer.iterations():
        path = analyzer.analyze(iteration)
        if path is None:
            print(f"iteration {iteration}: no critical path "
                  "(no aggregation completed)")
            continue
        print(path.format())
        report = analyzer.straggler_report(
            iteration, threshold=args.straggler_threshold
        )
        if report is not None and report.entries:
            print(report.format())
        print()
    return _report_failure(failure)


def _run_metrics(args) -> int:
    session = _build_trace_session(args)
    registry = MetricsRegistry(session.sim.bus)
    sampler = ResourceSampler.for_session(
        session, registry, interval=args.sample_interval
    )
    try:
        failure = _run_rounds(session, args.rounds)
    finally:
        sampler.stop()
        registry.close()
    exposition = render_openmetrics(registry)
    if args.output == "-":
        sys.stdout.write(exposition)
    else:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(exposition)
    if args.manifest is not None:
        manifest = RunManifest.collect(registry, session.fingerprint())
        manifest.write(args.manifest)
    observed = sum(h.count for h in registry.histograms().values())
    print(f"{observed} observations across "
          f"{sum(1 for h in registry.histograms().values() if h.count)} "
          f"histograms, {sampler.samples_taken} resource samples"
          + ("" if args.output == "-" else f" -> {args.output}")
          + ("" if args.manifest is None
             else f", manifest -> {args.manifest}"),
          file=sys.stderr)
    return _report_failure(failure)


# -- audit / incidents -------------------------------------------------------------


def _audit_session(args):
    """Build the (session, rounds) pair for audit-family subcommands,
    applying the ``--inject`` adjustments."""
    behaviors = None
    model_factory = None
    datasets = None
    rounds = args.rounds
    if args.inject is not None:
        behaviors = {"aggregator-0": _INJECTABLE[args.inject]()}
        if not args.verifiable:
            args.verifiable = True  # detection needs commitments
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
    session = _build_trace_session(
        args, behaviors=behaviors, model_factory=model_factory,
        datasets=datasets,
    )
    return session, rounds


def _write_bundles(incidents, directory: str) -> List[str]:
    import os
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, bundle in enumerate(incidents):
        name = (f"incident-{index:02d}-i{bundle.iteration}"
                f"-{bundle.kind}.json")
        path = os.path.join(directory, name)
        bundle.write(path)
        paths.append(path)
    return paths


def _run_audit(args) -> int:
    session, rounds = _audit_session(args)
    # The recorder subscribes first so its ring already holds the
    # triggering event when a monitor's InvariantViolated arrives.
    recorder = FlightRecorder(session.sim.bus)
    monitors = InvariantMonitors(session.sim.bus)
    failure = _run_rounds(session, rounds)
    violations = monitors.finalize()  # runs end-of-run leak checks too
    recorder.close()
    for violation in violations:
        print(f"VIOLATION [{violation.invariant}] {violation.subject}: "
              f"{violation.detail}")
    for bundle in recorder.incidents:
        print(bundle.summary())
    if recorder.suppressed:
        print(f"({recorder.suppressed} further incident(s) suppressed)")
    if args.incidents_dir and recorder.incidents:
        for path in _write_bundles(recorder.incidents, args.incidents_dir):
            print(f"bundle -> {path}", file=sys.stderr)
    clean = not violations and not recorder.incidents
    print("audit clean" if clean else
          f"audit FAILED: {len(violations)} violation(s), "
          f"{len(recorder.incidents)} incident(s)")
    status = _report_failure(failure)
    if status:
        return status
    if not clean and not args.warn_only:
        return 1
    return 0


def _run_incidents(args) -> int:
    session, rounds = _audit_session(args)
    recorder = FlightRecorder(session.sim.bus)
    monitors = InvariantMonitors(session.sim.bus)
    failure = _run_rounds(session, rounds)
    monitors.finalize()
    recorder.close()
    if not recorder.incidents:
        print("no incidents sealed (nothing misbehaved?)")
        return _report_failure(failure)
    for bundle in recorder.incidents:
        print(bundle.summary())
    for path in _write_bundles(recorder.incidents, args.output_dir):
        print(f"bundle -> {path}")
    return _report_failure(failure)


# -- chaos ---------------------------------------------------------------------------


def _run_chaos(args) -> int:
    plan = FaultPlan.load(args.plan) if args.plan else FaultPlan()
    session = _build_trace_session(args, faults=plan)
    # Subscription order matters: the recorder first, so its ring
    # already holds a watchdog anomaly when the seal check runs.
    recorder = FlightRecorder(session.sim.bus)
    monitors = InvariantMonitors(session.sim.bus)
    counters = CountersRegistry(session.sim.bus)
    registry = MetricsRegistry(session.sim.bus) if args.manifest else None
    watch = bool(args.watch or args.expect_anomaly
                 or args.forbid_anomalies)
    watchdog = AnomalyWatchdog.for_session(session) if watch else None
    failure = _run_rounds(session, args.rounds)
    if watchdog is not None:
        watchdog.finalize()
    if failure is None:
        # Evict every finished round's objects first, so the end-of-run
        # leak check only flags storage the protocol truly abandoned
        # (a crashed trainer's orphaned upload is reclaimed by GC, not
        # a leak).
        session.collect_garbage(keep_iterations=0)
    violations = monitors.finalize()
    recorder.close()
    if registry is not None:
        registry.close()
        manifest = RunManifest.collect(registry, session.fingerprint())
        manifest.write(args.manifest)
        print(f"manifest -> {args.manifest}", file=sys.stderr)
    snapshot = counters.snapshot()

    problems: List[str] = []
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
    retries_exhausted = int(snapshot.get("protocol.retries_exhausted", 0))
    if args.forbid_retry_exhausted and retries_exhausted:
        problems.append(f"{retries_exhausted} retry budget(s) exhausted "
                        "on a run that forbids it")
    if violations:
        problems.append(f"{len(violations)} invariant violation(s)")
    if watchdog is not None:
        observed_kinds = watchdog.kinds()
        missing = [kind for kind in (args.expect_anomaly or ())
                   if kind not in observed_kinds]
        if missing:
            problems.append("expected anomaly kind(s) not detected: "
                            + ", ".join(missing))
        if args.forbid_anomalies and watchdog.anomalies:
            problems.append(
                f"{len(watchdog.anomalies)} anomaly(ies) classified on "
                "a run that forbids them: "
                + ", ".join(f"{kind}={count}" for kind, count
                            in watchdog.summary().items()))

    for violation in violations:
        print(f"VIOLATION [{violation.invariant}] {violation.subject}: "
              f"{violation.detail}")
    if watchdog is not None:
        for anomaly in watchdog.anomalies:
            evidence = " ".join(
                f"{key}={value}" for key, value in anomaly.evidence)
            print(f"ANOMALY [{anomaly.kind}/{anomaly.severity}] "
                  f"t={anomaly.at:.3f} iter={anomaly.iteration} "
                  f"{anomaly.detector}: {evidence}")
        print("watchdog: no anomalies" if not watchdog.anomalies else
              "watchdog: " + ", ".join(
                  f"{kind}={count}" for kind, count
                  in watchdog.summary().items()))
    for bundle in recorder.incidents:
        print(bundle.summary())
    if args.incidents_dir and recorder.incidents:
        for path in _write_bundles(recorder.incidents, args.incidents_dir):
            print(f"bundle -> {path}", file=sys.stderr)
    print(f"plan: {len(plan)} spec(s) (seed {plan.seed}), "
          f"{int(snapshot.get('faults.injected', 0))} injected, "
          f"{int(snapshot.get('faults.healed', 0))} healed; "
          f"{int(snapshot.get('protocol.participants_degraded', 0))} "
          f"participant-round(s) degraded, "
          f"{int(snapshot.get('net.transfers_aborted', 0))} transfer(s) "
          f"aborted, {retries_exhausted} retry budget(s) exhausted")
    if survivors:
        print(f"{len(survivors)}/{len(session.trainers)} trainers "
              f"completed the final round in consensus"
              if not problems else
              f"{len(survivors)}/{len(session.trainers)} trainers "
              f"completed the final round")
    print("chaos clean" if not problems
          else "chaos FAILED: " + "; ".join(problems))
    status = _report_failure(failure)
    if status:
        return status
    if problems and not args.warn_only:
        return 1
    return 0


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


def _run_profile(args) -> int:
    from .core import CohortPlan

    cohort = None
    if args.population > 0:
        cohort = CohortPlan(population=args.population,
                            cohorts=args.cohorts, seed=args.seed)
    session = _build_trace_session(args, cohort=cohort)
    registry = MetricsRegistry(session.sim.bus) if args.observe else None
    profiler = HostProfiler().install(session.sim)
    try:
        failure = _run_rounds(session, args.rounds)
    finally:
        profiler.uninstall()
        if registry is not None:
            registry.close()
    profile = profiler.profile(fingerprint=session.fingerprint())
    print(profile.format(top=args.top))
    if args.output:
        profile.write(args.output)
        print(f"profile -> {args.output}", file=sys.stderr)
    if args.perfetto:
        exporter = PerfettoExporter()
        exporter.add_profile(profile)
        exporter.write(args.perfetto)
        print(f"perfetto trace -> {args.perfetto} "
              "(open in ui.perfetto.dev)", file=sys.stderr)
    return _report_failure(failure)


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


def _run_compare(args) -> int:
    baseline = RunManifest.load(args.baseline)
    current = RunManifest.load(args.current)
    diff = compare_manifests(baseline, current, threshold=args.threshold)
    print(diff.format())
    if diff.has_regressions and not args.warn_only:
        return 1
    return 0


def _run_explain(args) -> int:
    artifacts = {"manifest": {}, "profile": {}}
    try:
        for side, path in (("base", args.base),
                           ("current", args.current)):
            kind, artifact = load_run_artifact(path)
            artifacts[kind][side] = artifact
        for side, path in (("base", args.profile_base),
                           ("current", args.profile_current)):
            if not path:
                continue
            kind, artifact = load_run_artifact(path)
            if kind != "profile":
                raise ValueError(f"{path}: expected a HostProfile")
            artifacts["profile"][side] = artifact
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"explain: {error}", file=sys.stderr)
        return 1
    try:
        report = diagnose_runs(
            base_manifest=artifacts["manifest"].get("base"),
            current_manifest=artifacts["manifest"].get("current"),
            base_profile=artifacts["profile"].get("base"),
            current_profile=artifacts["profile"].get("current"),
            threshold=args.threshold,
        )
    except ValueError as error:
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
    import os
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


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "train":
        return _run_train(args)
    if args.command == "providers-sweep":
        return _run_providers_sweep(args)
    if args.command == "commit-cost":
        return _run_commit_cost(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "timeline":
        return _run_timeline(args)
    if args.command == "critical-path":
        return _run_critical_path(args)
    if args.command == "metrics":
        return _run_metrics(args)
    if args.command == "scale":
        return _run_scale(args)
    if args.command == "dirshard":
        return _run_dirshard(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "explain":
        return _run_explain(args)
    if args.command == "audit":
        return _run_audit(args)
    if args.command == "incidents":
        return _run_incidents(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "reproduce":
        return _run_reproduce(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
