#!/usr/bin/env python
"""Anatomy of one training iteration: a flow-level timeline.

Collects every event of a single verifiable merge-and-download round
with a plain list subscriber on the session's bus, and prints the phases
of Algorithm 1 as they appear on the wire — upload wave,
merge-and-download wave, update distribution — plus the traffic matrix
by host role, summed over the ``TransferCompleted`` events.

The same events fold into the causal span tree of the round, from which
the example prints the per-node phase windows, the critical path through
the aggregation delay, and the straggler ranking.  (``python -m
repro.cli run`` folds its ``trace.jsonl`` the same way into a Perfetto
trace, ``timeline.perfetto.json``.)

Run:  python examples/iteration_timeline.py
"""

from collections import defaultdict

from repro import FLSession, NetworkProfile, ProtocolConfig
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.obs import CriticalPathAnalyzer
from repro.obs.events import TransferCompleted
from repro.obs.spans import span_trees


def role(host: str) -> str:
    return host.split("-")[0] if "-" in host else host


def main():
    data = make_classification(num_samples=640, num_features=64,
                               class_separation=2.5, seed=13)
    shards = split_iid(data, 8, seed=13)
    config = ProtocolConfig(
        num_partitions=2,
        t_train=300.0,
        t_sync=600.0,
        merge_and_download=True,
        providers_per_aggregator=2,
        verifiable=True,
    )
    session = FLSession(
        config,
        model_factory=lambda: LogisticRegression(num_features=64, seed=0),
        datasets=shards,
        network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
    )
    events = []
    session.sim.bus.subscribe(events.append)
    metrics = session.run_iteration()
    transfers = [event for event in events
                 if type(event) is TransferCompleted]

    print(f"one iteration, {len(transfers)} transfers, "
          f"{sum(t.size for t in transfers) / 1e3:.1f} kB on the wire")
    print()

    print("phase markers (simulated seconds):")
    print(f"  first gradient registered : {metrics.first_gradient_at:.4f}")
    for name, at in sorted(metrics.gradients_aggregated_at.items()):
        print(f"  {name} aggregated         : {at:.4f}")
    for name, at in sorted(metrics.update_registered_at.items()):
        print(f"  update registered ({name}): {at:.4f}")
    print(f"  iteration finished        : {metrics.finished_at:.4f}")
    print()

    print("traffic matrix by role (kB):")
    matrix = defaultdict(float)
    by_host = defaultdict(lambda: {"in": 0.0, "out": 0.0})
    for transfer in transfers:
        matrix[(role(transfer.src), role(transfer.dst))] += transfer.size
        by_host[transfer.src]["out"] += transfer.size
        by_host[transfer.dst]["in"] += transfer.size
    width = max(len(f"{src} -> {dst}") for src, dst in matrix)
    for (src, dst), size in sorted(matrix.items(),
                                   key=lambda kv: -kv[1]):
        print(f"  {f'{src} -> {dst}':<{width}}  {size / 1e3:10.2f}")
    print()

    busiest = max(by_host, key=lambda host: sum(by_host[host].values()))
    print(f"busiest host: {busiest} "
          f"(in {by_host[busiest]['in'] / 1e3:.1f} kB, "
          f"out {by_host[busiest]['out'] / 1e3:.1f} kB)")
    merges = sum(node.merges_served for node in session.nodes)
    print(f"merge-and-download requests served by storage nodes: {merges}")
    print()

    trees = span_trees(events)
    tree = trees[max(trees)]
    print(f"span tree: {len(tree)} spans across {len(tree.nodes())} nodes")
    for node, node_spans in sorted(tree.by_node().items()):
        phases = [span for span in node_spans if not span.is_instant]
        if not phases:
            continue
        windows = ", ".join(
            f"{span.name} [{span.start:.3f}, {span.end:.3f}]"
            for span in sorted(phases, key=lambda span: span.start)
        )
        print(f"  {node:<14} {windows}")
    print()

    analyzer = CriticalPathAnalyzer(trees)
    path = analyzer.analyze(tree.iteration)
    print(path.format())
    print()
    print(analyzer.straggler_report(tree.iteration, threshold=0.05)
          .format())


if __name__ == "__main__":
    main()
