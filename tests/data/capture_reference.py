"""Regenerate the legacy-metrics golden file.

Run from the repo root::

    PYTHONPATH=src python tests/data/capture_reference.py

The captured values pin the paper-facing metrics of a set of reference
configurations.  The file checked in was produced by the pre-refactor
(mutate-in-place) telemetry implementation; the event-bus telemetry must
reproduce every value exactly (see tests/test_obs_equivalence.py).  The
centralized entries were captured from the baseline as it stood before
the baselines shared one round driver and one learning step (a session
class of its own; the server was host ``"server"``, renamed
``"aggregator-0"`` in the file).
"""

import json
import os
import sys

from repro.baselines import CentralizedSession, DirectIPLSSession
from repro import FLSession, NetworkProfile, ProtocolConfig
from repro.ml import (LogisticRegression, SyntheticModel,
                      make_classification, split_iid)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "legacy_metrics_reference.json")

METRIC_NAMES = [
    "aggregation_delay", "total_aggregation_delay", "sync_delay",
    "mean_upload_delay", "mean_bytes_received", "collection_time",
    "end_to_end_delay", "duration", "first_gradient_at",
]


def snapshot(metrics) -> dict:
    snap = {name: getattr(metrics, name) for name in METRIC_NAMES}
    snap["trainers_completed"] = sorted(metrics.trainers_completed)
    snap["verification_failures"] = sorted(metrics.verification_failures)
    snap["takeovers"] = sorted(metrics.takeovers)
    snap["upload_delays"] = dict(sorted(metrics.upload_delays.items()))
    snap["gradients_aggregated_at"] = dict(
        sorted(metrics.gradients_aggregated_at.items()))
    snap["update_registered_at"] = dict(
        sorted(metrics.update_registered_at.items()))
    snap["bytes_received"] = dict(sorted(metrics.bytes_received.items()))
    snap["sync_delays"] = dict(sorted(metrics.sync_delays.items()))
    return snap


def dummy_datasets(count):
    import numpy as np
    from repro.ml import Dataset
    return [Dataset(np.full((1, 1), float(i + 1)), np.zeros(1))
            for i in range(count)]


def fig1_like(providers):
    """Scaled-down Fig. 1 point: merge-and-download provider sweep."""
    config = ProtocolConfig(
        num_partitions=1, t_train=600.0, t_sync=1200.0,
        update_mode="gradient", poll_interval=0.25,
        merge_and_download=True, providers_per_aggregator=providers,
    )
    session = FLSession(
        config, lambda: SyntheticModel(20_000), dummy_datasets(16),
        network=NetworkProfile(num_ipfs_nodes=16, bandwidth_mbps=10.0),
    )
    return snapshot(session.run_iteration())


def fig2_like(aggregators_per_partition):
    """Scaled-down Fig. 2 point: multi-aggregator sync sweep."""
    config = ProtocolConfig(
        num_partitions=4,
        aggregators_per_partition=aggregators_per_partition,
        t_train=600.0, t_sync=1200.0, takeover_grace=60.0,
        merge_and_download=False, update_mode="gradient",
        poll_interval=0.25,
    )
    session = FLSession(
        config, lambda: SyntheticModel(17_500 * 4), dummy_datasets(16),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=20.0),
    )
    return snapshot(session.run_iteration())


def verifiable_run():
    """Two verifiable-mode ML rounds (commitments, real training)."""
    data = make_classification(num_samples=160, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    session = FLSession(
        ProtocolConfig(num_partitions=2, t_train=300.0, t_sync=600.0,
                       verifiable=True),
        lambda: LogisticRegression(num_features=8, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4),
    )
    session.run(rounds=2)
    return [snapshot(m) for m in session.metrics.iterations]


def direct_baseline():
    config = ProtocolConfig(
        num_partitions=1, t_train=600.0, t_sync=1200.0,
        update_mode="gradient", poll_interval=0.25,
    )
    session = DirectIPLSSession(
        config, lambda: SyntheticModel(20_000), dummy_datasets(16),
        bandwidth_mbps=10.0,
    )
    return snapshot(session.run_iteration())


def run_record(session, rounds, params, network) -> dict:
    """Every round's metrics, the final parameters' sha256, the bytes the
    network delivered and the simulated end time of ``rounds`` rounds."""
    import hashlib

    session.run(rounds=rounds)
    return {
        "iterations": [m.to_dict() for m in session.metrics.iterations],
        "params_sha256": hashlib.sha256(params().tobytes()).hexdigest(),
        "bytes_delivered": network.bytes_delivered,
        "sim_now": session.sim.now,
    }


def logreg_shards(count):
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=1)
    return split_iid(data, count, seed=1)


def logreg():
    return LogisticRegression(num_features=8, num_classes=2, seed=0)


def logreg_config():
    return ProtocolConfig(num_partitions=2, t_train=300.0, t_sync=600.0,
                          seed=2)


def centralized_baselines():
    """Two configurations; the caller's four partitions become one."""
    params = CentralizedSession(logreg_config(), logreg, logreg_shards(4),
                                bandwidth_mbps=10.0)
    params.testbed.network.default_latency = 0.01
    gradient = CentralizedSession(
        ProtocolConfig(num_partitions=4, t_train=600.0, t_sync=1200.0,
                       update_mode="gradient", poll_interval=0.25),
        lambda: SyntheticModel(20_000), dummy_datasets(16),
        bandwidth_mbps=10.0,
    )
    return {
        "logreg_params": run_record(params, 2, params.consensus_params,
                                    params.testbed.network),
        "synthetic_gradient": run_record(
            gradient, 1, gradient.consensus_params,
            gradient.testbed.network),
    }


def main():
    reference = {
        "fig1_like": {str(p): fig1_like(p) for p in (1, 4)},
        "fig2_like": {str(a): fig2_like(a) for a in (1, 2)},
        "verifiable": verifiable_run(),
        "direct_baseline": direct_baseline(),
        "centralized": centralized_baselines(),
    }
    with open(OUT, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
