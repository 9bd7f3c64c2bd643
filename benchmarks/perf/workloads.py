"""The benchmark's five workloads.

Each workload is a fixed, seeded deployment of the simulator and a fixed
number of rounds.  They are closed loops by nature: one simulator, one
thread, the next round starts when the previous one ended.  ``--seed``
reaches the simulator only through the generated inputs:
``ProtocolConfig.seed`` (assignment shuffling, provider choice), the
data shards and the fault plan's seed.

The ``why`` of each workload is the reason it exists; README.md has the
long form and the layer-interaction table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from repro import FaultPlan, FLSession, NetworkProfile, ProtocolConfig
from repro.faults import RetryPolicy
from repro.ml import Dataset, MLPClassifier, SyntheticModel, \
    make_classification, split_iid

__all__ = ["CHURN_PLAN", "MLP_FEATURES", "MLP_HIDDEN", "WORKLOADS",
           "Workload", "by_name", "mlp_model"]

#: The verifiable workload's model: 60*64 + 64 + 64*2 + 2 = 4 034
#: parameters, i.e. two partitions of 2 017 values.  The crypto probes
#: commit to a vector of the same partition length.
MLP_FEATURES = 60
MLP_HIDDEN = 64

#: A copy of ``examples/plans/churn.json`` (trainer crash + late join,
#: aggregator crash + takeover, link outage, directory brown-out).  Held
#: here so that editing the example cannot silently change the benchmark.
CHURN_PLAN = {
    "specs": [
        {"at": 0.5, "duration": 700.0, "kind": "crash_trainer",
         "target": "trainer-1"},
        {"at": 0.15, "kind": "crash_aggregator", "target": "aggregator-0"},
        {"at": 3.0, "duration": 30.0, "kind": "link_down",
         "target": "trainer-2"},
        {"at": 1.0, "duration": 10.0, "kind": "directory_brownout",
         "processing_delay": 2.0},
    ],
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: which layers it loads and what it separates.
    why: str
    #: Rounds of one trial, and of one ``--smoke`` trial.
    rounds: int
    smoke_rounds: int
    #: Run ``collect_garbage(keep_iterations=1)`` after every round and
    #: count it into the round's wall time.
    gc: bool
    build: Callable[[int], FLSession]
    #: Attach the full observer stack (recorder, monitors, metrics
    #: registry, watchdog) before the first round.
    watched: bool = False
    #: A fault plan runs: only the final round's survivors must agree.
    faulted: bool = False


def _marker_datasets(count: int, seed: int):
    """Placeholder shards whose marker value makes every trainer's
    SyntheticModel gradient, and therefore every CID, distinct per
    trainer and per seed."""
    return [
        Dataset(np.full((1, 1), float(seed * 1000 + index + 1)),
                np.zeros(1))
        for index in range(count)
    ]


def _config(seed: int, **overrides) -> ProtocolConfig:
    defaults = dict(t_train=600.0, t_sync=1200.0, update_mode="gradient",
                    poll_interval=0.25, seed=seed)
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


def _fig1_merge(seed: int) -> FLSession:
    return FLSession(
        _config(seed, num_partitions=1, merge_and_download=True,
                providers_per_aggregator=4),
        lambda: SyntheticModel(162_500),
        _marker_datasets(16, seed),
        network=NetworkProfile(num_ipfs_nodes=16, bandwidth_mbps=10.0),
    )


def _fig2_sync(seed: int) -> FLSession:
    return FLSession(
        _config(seed, num_partitions=4, aggregators_per_partition=2,
                takeover_grace=60.0),
        lambda: SyntheticModel(4 * 137_500),
        _marker_datasets(16, seed),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=20.0),
    )


def _exact_n96(seed: int) -> FLSession:
    return FLSession(
        _config(seed, num_partitions=4),
        lambda: SyntheticModel(40_000),
        _marker_datasets(96, seed),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )


def mlp_model(seed: int) -> MLPClassifier:
    return MLPClassifier(num_features=MLP_FEATURES, hidden=MLP_HIDDEN,
                         seed=seed)


def _verifiable_mlp(seed: int) -> FLSession:
    data = make_classification(num_samples=256, num_features=MLP_FEATURES,
                               seed=seed)
    return FLSession(
        _config(seed, num_partitions=2, verifiable=True,
                curve="secp256k1", fractional_bits=16,
                directory_verification=True),
        lambda: mlp_model(seed),
        split_iid(data, 4, seed=seed),
        network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
    )


def _churn_watched(seed: int) -> FLSession:
    return FLSession(
        # "params" mode (Algorithm 1: the global update is the average of
        # the uploaded parameters), so the late joiner is back in
        # consensus one round after its fault heals; in "gradient" mode
        # it would keep the two updates it missed as a permanent offset.
        _config(seed, num_partitions=2, aggregators_per_partition=2,
                update_mode="params"),
        lambda: SyntheticModel(20_000),
        _marker_datasets(4, seed),
        network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0,
                               directory_request_timeout=10.0,
                               retry=RetryPolicy()),
        faults=FaultPlan.from_dict({**CHURN_PLAN, "seed": seed}),
    )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "fig1_merge",
        "paper Fig. 1 optimum (16 trainers, 1.3 MB, merge-and-download x4):"
        " sim + net small-component path + ipfs merge + core",
        rounds=24, smoke_rounds=2, gc=True, build=_fig1_merge),
    Workload(
        "fig2_sync",
        "paper Fig. 2 (4 x 1.1 MB, |A_i|=2, striped gets + pubsub sync):"
        " most bytes through ipfs chunk/hash/copy, the memory workload",
        rounds=6, smoke_rounds=1, gc=True, build=_fig2_sync),
    Workload(
        "exact_n96",
        "96 exactly-simulated trainers: net recompute on the large-component"
        " path dominates; crypto/ipfs changes must not show here",
        rounds=3, smoke_rounds=1, gc=False, build=_exact_n96),
    Workload(
        "verifiable_mlp",
        "Pedersen commitments on a real 4034-param MLP: crypto is the round"
        " and generator derivation is the set-up",
        rounds=4, smoke_rounds=1, gc=False, build=_verifiable_mlp),
    Workload(
        "churn_watched",
        "churn fault plan under the full observer stack: kernel timeout/"
        "cancel path + obs subscribers; the only non-zero fail_share",
        rounds=4, smoke_rounds=1, gc=False, build=_churn_watched,
        watched=True, faulted=True),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; have "
                   + ", ".join(w.name for w in WORKLOADS))
