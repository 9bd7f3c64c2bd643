"""Closed-form delay predictions for the non-merge protocol paths.

Back-of-envelope models used to sanity-check the simulator and to explain
benchmark output:

- An aggregator downloads ``(|T_ij| + |A_i| - 1)`` partitions per
  iteration (Sec. III-E's D formula).
- At bandwidth ``b`` that serializes to ``D / b`` seconds when the
  aggregator's downlink is the bottleneck.
"""

from __future__ import annotations

__all__ = [
    "aggregator_download_bytes",
    "naive_aggregation_time",
    "naive_collection_time",
]


def aggregator_download_bytes(
    trainers_per_aggregator: int,
    aggregators_per_partition: int,
    partition_bytes: float,
) -> float:
    """The paper's D = (|T_ij| + |A_i| - 1) * Partition_Size."""
    if trainers_per_aggregator < 0 or aggregators_per_partition < 1:
        raise ValueError("invalid participant counts")
    return (
        (trainers_per_aggregator + aggregators_per_partition - 1)
        * partition_bytes
    )


def naive_aggregation_time(
    trainers_per_aggregator: int,
    partition_bytes: float,
    aggregator_bandwidth: float,
) -> float:
    """Serialized download time of all gradients through one downlink."""
    if aggregator_bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return trainers_per_aggregator * partition_bytes / aggregator_bandwidth


def naive_collection_time(
    num_gradients: int,
    gradient_wire_bytes: float,
    aggregator_bandwidth: float,
    request_wire_bytes: float = 0.0,
) -> float:
    """Exact duration of a symmetric naive download wave.

    When an aggregator issues ``num_gradients`` concurrent gets at one
    instant over zero-latency links and its own access link is the
    binding resource throughout (uplink for the requests, downlink for
    the responses — true whenever each storage node serves fewer flows
    than the fan-in), max-min fair sharing finishes all transfers
    simultaneously and the wave degenerates to full serialization:

        T = num_gradients * (request_wire + gradient_wire) / b

    This is :func:`naive_aggregation_time` made wire-exact (framing
    overheads included), suitable for float-tolerance golden tests of
    the simulator's critical path.
    """
    if aggregator_bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if num_gradients < 0:
        raise ValueError("num_gradients must be non-negative")
    return (
        num_gradients * (request_wire_bytes + gradient_wire_bytes)
        / aggregator_bandwidth
    )
