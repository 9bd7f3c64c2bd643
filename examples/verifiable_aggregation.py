#!/usr/bin/env python
"""Verifiable aggregation vs malicious aggregators (paper Sec. IV).

Three scenarios on the same task:

1. an honest run with Pedersen commitments — everything verifies,
2. a *model-poisoning* aggregator without verification — the attack
   silently lands in everyone's model,
3. the same attacker under verifiable aggregation — the directory
   rejects the forged update because it does not open the accumulated
   commitment, and the poisoned model is never served.

Run:  python examples/verifiable_aggregation.py
"""

import numpy as np

from repro import FLSession, NetworkProfile, ProtocolConfig
from repro.core import AlterUpdateBehavior
from repro.ml import LogisticRegression, make_classification, split_iid

NUM_TRAINERS = 8
NUM_FEATURES = 12


def build_session(verifiable: bool, malicious: bool):
    data = make_classification(num_samples=400, num_features=NUM_FEATURES,
                               class_separation=3.0, seed=3)
    shards = split_iid(data, NUM_TRAINERS, seed=3)
    config = ProtocolConfig(
        num_partitions=2,
        t_train=120.0,
        t_sync=240.0,
        verifiable=verifiable,
        curve="secp256k1",
        fractional_bits=16,
    )
    behaviors = {}
    if malicious:
        behaviors["aggregator-0"] = AlterUpdateBehavior(offset=5.0)
    return FLSession(
        config,
        model_factory=lambda: LogisticRegression(
            num_features=NUM_FEATURES, num_classes=2, seed=0),
        datasets=shards,
        network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
        behaviors=behaviors,
    )


def main():
    print("=== 1. honest run, verifiable aggregation on ===")
    honest = build_session(verifiable=True, malicious=False)
    metrics = honest.run_iteration()
    honest_params = honest.consensus_params()
    print(f"trainers completed: {len(metrics.trainers_completed)}"
          f"/{NUM_TRAINERS}")
    print(f"verification failures: {metrics.verification_failures}")

    print()
    print("=== 2. poisoning aggregator, NO verification ===")
    attacked = build_session(verifiable=False, malicious=True)
    metrics = attacked.run_iteration()
    poisoned_params = attacked.consensus_params()
    drift = float(np.max(np.abs(poisoned_params - honest_params)))
    print(f"trainers completed: {len(metrics.trainers_completed)}"
          f"/{NUM_TRAINERS}  (the attack went unnoticed)")
    print(f"max parameter drift vs honest model: {drift:.3f} "
          f"(the poison landed)")

    print()
    print("=== 3. same attacker, verifiable aggregation ON ===")
    defended = build_session(verifiable=True, malicious=True)
    metrics = defended.run_iteration()
    print(f"trainers completed: {len(metrics.trainers_completed)}"
          f"/{NUM_TRAINERS}  (poisoned update never served)")
    print("directory rejections:")
    for rejection in defended.directory.rejections:
        print(f"  - {rejection.address}: {rejection.reason}")


if __name__ == "__main__":
    main()
