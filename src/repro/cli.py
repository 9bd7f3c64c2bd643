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
``reproduce``
    Print the paper's figure tables (:mod:`repro.analysis.figures`) as
    the figure benchmarks write them under ``benchmarks/results/``.
``run``
    Run one session under the whole observer stack — flight recorder,
    invariant monitors, metrics registry + round-boundary resource
    sampler, anomaly watchdog, JSONL trace, host profiler — and write
    the run bundle into ``--artifacts DIR``: ``manifest.json``,
    ``trace.jsonl``, ``timeline.perfetto.json`` (folded from the trace
    after the run) and ``incidents/`` (pure functions of seed + configuration: a replay
    reproduces them byte for byte), ``report.txt`` (what was printed:
    critical path and stragglers per iteration, the host-profile table,
    violations / anomalies / incidents, the fault-plan line, the
    verdict) and the host-side ``profile.json``.
    ``--plan`` runs it under a fault plan (docs/FAULTS.md), ``--inject``
    seeds a misbehaving aggregator.  The bundle is written even when the
    run dies mid-round, and the exit status is one rule (``_verdict``;
    "The run bundle" in docs/OBSERVABILITY.md); ``--warn-only`` reports
    what the rule found and exits 0.
``explain``
    Differential run diagnosis over two bundle directories: a ranked
    attribution of what changed — subsystem wall-cost shifts
    (``profile.json``), anomaly kinds that fired in one run only, metric
    regressions and config drift (``manifest.json``); ``--json`` for the
    machine-readable report.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List, Tuple

import numpy as np

from .analysis import diagnose_runs, format_table
from .analysis.figures import (
    FIG3_SIZES,
    fig1_table,
    fig2_table,
    fig3_table,
    marker_datasets,
)
from .core import FLSession, ProtocolConfig
from .core.adversary import (
    AlterUpdateBehavior,
    DropGradientsBehavior,
    LazyBehavior,
    ReplayUpdateBehavior,
)
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
    ResourceSampler,
    RunManifest,
    SYSTEM_WALL_CLOCK,
    fold_trace,
)
from .ml import (
    LogisticRegression,
    SyntheticModel,
    TrainConfig,
    accuracy,
    make_classification,
    split_dirichlet,
    split_iid,
    train_test_split,
)
from .net import NetworkProfile

#: ``--inject`` choices: seeded aggregator misbehaviours (fresh
#: instance per run — behaviours keep per-round state).
_INJECTABLE = {
    "drop": lambda: DropGradientsBehavior(keep_fraction=0.5),
    "alter": lambda: AlterUpdateBehavior(offset=1.0),
    "lazy": lambda: LazyBehavior(),
    "replay": lambda: ReplayUpdateBehavior(),
}

#: ``reproduce --figures`` choices (Fig. 3 times commitments for real).
_FIGURES = {
    "fig1": fig1_table,
    "fig2": fig2_table,
    "fig3": lambda: fig3_table(FIG3_SIZES, SYSTEM_WALL_CLOCK),
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

    run = subparsers.add_parser(
        "run",
        help="run a session under the whole observer stack and write "
             "the run bundle (manifest, trace, timeline, incidents, "
             "report, host profile); non-zero exit unless "
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
    run.add_argument("--plan", default=None,
                     help="fault plan .json file (kinds crash_trainer, "
                          "crash_aggregator, link_down, "
                          "directory_brownout); omit for honest "
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

    reproduce = subparsers.add_parser(
        "reproduce",
        help="print the paper's figure tables, as the figure benchmarks "
             "write them under benchmarks/results/",
    )
    reproduce.add_argument(
        "--figures", nargs="+", default=list(_FIGURES), choices=_FIGURES,
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


# -- run -----------------------------------------------------------------------------


def _build_run_session(args, plan: FaultPlan) -> Tuple[FLSession, int]:
    """The session ``run`` observes and how many rounds to drive it,
    after the ``--inject`` adjustments."""
    verifiable = args.verifiable
    rounds = args.rounds
    behaviors = None
    datasets = marker_datasets(args.trainers)
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
    session = FLSession(
        config,
        model_factory=model_factory,
        datasets=datasets,
        network=network,
        faults=plan,
        behaviors=behaviors,
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
        self.watchdog = AnomalyWatchdog.for_session(session)
        self.trace = JsonlTraceExporter(
            bus, os.path.join(directory, "trace.jsonl"))
        self.profiler = HostProfiler(clock).install(session.sim)

    def detach(self, session: FLSession, completed: bool) -> list:
        """Stop everything, flush the streamed files and return the
        run's invariant violations."""
        self.profiler.uninstall()
        self.sampler.close()
        self.watchdog.finalize()
        if completed:
            # Evict every finished round's objects first, so the
            # end-of-run leak check only flags storage the protocol
            # truly abandoned (a crashed trainer's orphaned upload is
            # reclaimed by GC, not a leak).
            session.collect_garbage(keep_iterations=0)
        violations = self.monitors.finalize()
        self.recorder.close()
        self.registry.close()
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


def _anomaly_line(anomaly) -> str:
    """One ``AnomalyDetected`` as its ``report.txt`` line."""
    evidence = " ".join(f"{key}={value}" for key, value in anomaly.evidence)
    return (f"ANOMALY [{anomaly.kind}/{anomaly.severity}] "
            f"t={anomaly.at:.3f} iter={anomaly.iteration} "
            f"{anomaly.detector}: {evidence}")


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
    timeline, trees = fold_trace(os.path.join(directory, "trace.jsonl"))
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
    analyzer = CriticalPathAnalyzer(trees)
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
    lines += [_anomaly_line(anomaly) for anomaly in watchdog.anomalies]
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
    for figure in args.figures:
        print(_FIGURES[figure]()[1])
    return 0


_COMMANDS = {
    "train": _run_train,
    "reproduce": _run_reproduce,
    "run": _run_run,
    "explain": _run_explain,
}


def main(argv: List[str]) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
