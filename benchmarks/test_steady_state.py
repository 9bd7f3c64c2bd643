"""Steady-state operation: multi-round storage behaviour with GC.

Sec. VI: "in our protocol both gradients and updates [are] only needed
for a short period of time".  This benchmark runs several rounds with and
without per-round garbage collection and shows that GC bounds the
storage-network footprint while training results are unchanged.
"""

import numpy as np
from _helpers import save_table

from repro.analysis import format_table
from repro.core import FLSession, ProtocolConfig
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile

ROUNDS = 5
NUM_TRAINERS = 8


def build_session():
    data = make_classification(num_samples=400, num_features=32,
                               class_separation=3.0, seed=2)
    shards = split_iid(data, NUM_TRAINERS, seed=2)
    config = ProtocolConfig(num_partitions=4, t_train=300.0,
                            t_sync=600.0)
    return FLSession(
        config,
        lambda: LogisticRegression(num_features=32, num_classes=2, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
    )


def test_steady_state_storage(benchmark):
    outcome = {}

    def experiment():
        unbounded = build_session()
        bounded = build_session()
        rows = []
        for round_index in range(ROUNDS):
            unbounded.run_iteration()
            bounded.run_iteration()
            bounded.collect_garbage(keep_iterations=1)
            rows.append([
                round_index,
                unbounded.storage_bytes / 1e3,
                bounded.storage_bytes / 1e3,
            ])
        outcome["rows"] = rows
        outcome["params_equal"] = bool(np.allclose(
            unbounded.consensus_params(), bounded.consensus_params(),
            atol=1e-12,
        ))

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = outcome["rows"]

    save_table("steady_state", format_table(
        ["round", "storage no-GC (kB)", "storage with GC (kB)"],
        rows,
        title=f"Storage footprint over {ROUNDS} rounds "
              f"({NUM_TRAINERS} trainers, 4 partitions)",
    ))

    # Without GC storage grows every round; with GC it plateaus.
    no_gc = [row[1] for row in rows]
    with_gc = [row[2] for row in rows]
    assert no_gc == sorted(no_gc) and no_gc[-1] > no_gc[0] * 3
    assert max(with_gc) <= with_gc[0] * 1.5
    assert with_gc[-1] < no_gc[-1] / 2
    # GC never changed the learning outcome.
    assert outcome["params_equal"]
