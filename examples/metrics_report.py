#!/usr/bin/env python
"""The metrics layer end to end: sketches, storage series, manifest diffs.

Runs a short merge-and-download session with a ``MetricsRegistry`` and
a ``ResourceSampler`` attached, prints the interesting part of its run
manifest, then reruns the same scenario with one extra provider per
aggregator and diffs the two manifests — the same machinery behind
``manifest.json`` in a ``python -m repro.cli run`` bundle and ``cli
explain`` — and the extra provider shows up as an *improvement* in the
transfer and upload distributions (the Fig. 1 effect).

A registry histogram is a ``QuantileSketch`` (exact up to 4 096
observations, bounded relative error above — see
``docs/OBSERVABILITY.md``, "Quantile sketches"); a figure-scale run
like this one stays exact.

Run:  python examples/metrics_report.py
"""

import numpy as np

from repro import FLSession, NetworkProfile, ProtocolConfig
from repro.ml import Dataset, SyntheticModel
from repro.obs import (
    MetricsRegistry,
    ResourceSampler,
    RunManifest,
    compare_manifests,
)
from repro.obs.sketch import RELATIVE_ERROR

NUM_TRAINERS = 8
PARTITION_PARAMS = 40_000  # ~320 kB of float64 per partition


def run_session(providers_per_aggregator: int) -> RunManifest:
    """One observed round; returns its manifest."""
    config = ProtocolConfig(
        num_partitions=1,
        t_train=3600.0,
        t_sync=7200.0,
        update_mode="gradient",
        poll_interval=0.25,
        merge_and_download=True,
        providers_per_aggregator=providers_per_aggregator,
    )
    shards = [
        Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
        for index in range(NUM_TRAINERS)
    ]
    session = FLSession(
        config,
        model_factory=lambda: SyntheticModel(PARTITION_PARAMS),
        datasets=shards,
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )
    registry = MetricsRegistry(session.sim.bus)
    sampler = ResourceSampler.for_session(session, registry)
    session.run(rounds=1)
    sampler.close()
    registry.close()

    manifest = RunManifest.collect(registry, session.fingerprint())
    if providers_per_aggregator == 1:  # print the baseline's manifest
        print(f"baseline run ({providers_per_aggregator} provider, "
              f"{NUM_TRAINERS} trainers, {sampler.samples_taken} "
              f"round-boundary reads) — run manifest excerpt:")
        for name, summary in (
                ("net.transfer.duration",
                 manifest.histograms["net.transfer.duration"]),
                ("ipfs.blockstore.objects",
                 manifest.series["ipfs.blockstore.objects"]),
                ("ipfs.blockstore.bytes",
                 manifest.series["ipfs.blockstore.bytes"])):
            print(f"  {name}: " + ", ".join(
                f"{stat}={value:.4g}" for stat, value in summary.items()))
        print()
        duration = registry.histogram("net.transfer.duration")
        mode = "exact" if duration.exact else \
            f"sketch (±{RELATIVE_ERROR:.0%}, " \
            f"{duration.bucket_count} buckets)"
        print(f"transfer durations [{mode}]: n={duration.count} "
              f"mean={duration.mean:.3f}s p95={duration.percentile(95):.3f}s "
              f"max={duration.maximum:.3f}s")
        print(f"telemetry cost: {registry.events_observed} events folded, "
              f"{registry.sketch_histograms()} sketch histogram(s), "
              f"peak {registry.peak_telemetry_bytes / 1024:.1f} KiB "
              f"(deterministic memory model)")
        print()

    return manifest


def main():
    baseline = run_session(providers_per_aggregator=1)
    wider = run_session(providers_per_aggregator=2)

    print("rerun with one extra provider per aggregator, manifest diff")
    print("(higher is worse; negative changes are improvements):")
    print()
    diff = compare_manifests(baseline, wider, threshold=0.10)
    print(diff.format())
    print()
    improved = {entry.metric for entry in diff.improvements}
    if "protocol.upload.delay.mean" in improved or \
            "net.transfer.duration.p95" in improved:
        print("the extra provider spreads the upload wave: "
              "the distribution tails shrink, exactly Fig. 1's claim")
    if not diff.fingerprint_matches:
        print("(the fingerprints differ, as they must: the scenario "
              "changed, so compare warns before diffing)")


if __name__ == "__main__":
    main()
