"""Analytic models from Sec. III-E: merge-and-download provider trade-off.

The paper models the time for aggregator ``A_ij`` to obtain all its data as

    tau = Partition_Size * ( |T_ij| / (d * |P_ij|)  +  |P_ij| / b )

where ``d`` is the IPFS nodes' bandwidth and ``b`` the aggregator's.
Setting d(tau)/dP = 0 gives the optimum ``|P_ij|* = sqrt(b * |T_ij| / d)``.
These closed forms are compared against the simulator in the
``test_provider_model`` benchmark.
"""

from __future__ import annotations

import math

__all__ = ["aggregation_time_model", "optimal_providers"]


def aggregation_time_model(
    num_trainers: int,
    partition_bytes: float,
    providers: int,
    node_bandwidth: float,
    aggregator_bandwidth: float,
) -> float:
    """The paper's tau(P): ingest time at providers + drain time at the
    aggregator, in seconds."""
    if providers < 1:
        raise ValueError("providers must be >= 1")
    if num_trainers < 1:
        raise ValueError("num_trainers must be >= 1")
    if partition_bytes < 0:
        raise ValueError("partition_bytes must be non-negative")
    if node_bandwidth <= 0 or aggregator_bandwidth <= 0:
        raise ValueError("bandwidths must be positive")
    ingest = num_trainers / (node_bandwidth * providers)
    drain = providers / aggregator_bandwidth
    return partition_bytes * (ingest + drain)


def optimal_providers(
    num_trainers: int,
    node_bandwidth: float = 1.0,
    aggregator_bandwidth: float = 1.0,
) -> float:
    """The real-valued optimum sqrt(b * T / d); round for a node count."""
    if num_trainers < 1:
        raise ValueError("num_trainers must be >= 1")
    if node_bandwidth <= 0 or aggregator_bandwidth <= 0:
        raise ValueError("bandwidths must be positive")
    return math.sqrt(
        aggregator_bandwidth * num_trainers / node_bandwidth
    )
