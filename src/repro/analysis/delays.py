"""Closed-form delay predictions for the non-merge protocol paths and for
the blockchain FL the paper contrasts against.

Back-of-envelope models used to sanity-check the simulator and to explain
benchmark output:

- An aggregator downloads ``(|T_ij| + |A_i| - 1)`` partitions per
  iteration (Sec. III-E's D formula).
- At bandwidth ``b`` that serializes to ``D / b`` seconds when the
  aggregator's downlink is the bottleneck.
- A blockchain FL round replicates every update on every miner
  (:func:`blockchain_round_cost`, the Sec. I blow-up).
"""

from __future__ import annotations

from typing import Tuple


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
    request_wire_bytes: float,
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


#: Framing bytes of one blockchain FL message (submit, gossip, model).
BCFL_MESSAGE_OVERHEAD = 128
#: Bytes of one block header, on the wire and in a miner's replica.
BCFL_BLOCK_HEADER = 256


def blockchain_round_cost(
    num_trainers: int,
    num_miners: int,
    blob_bytes: int,
    bandwidth: float,
) -> Tuple[float, int, int]:
    """``(delay_s, network_bytes, storage_bytes)`` of one round of
    flexibly-coupled blockchain FL (Sec. I: "miners have to store all
    updates into the blockchain").

    Trainer ``i`` submits its ``blob_bytes`` update to miner ``i mod M``,
    every miner gossips each submit to the ``M - 1`` others, and the
    round's leader aggregates, appends a block and sends it to the other
    miners and the model to every trainer.  With zero latency, zero
    training time and ``bandwidth`` R (bytes/s) up and down on every
    host, the submits (``N / M`` flows on each miner's downlink) and the
    gossip (``(M - 1) N / M`` sends on each miner's uplink and downlink)
    take ``N (B + o) / R``, o being a message's framing, and the leader's
    uplink carries the ``M - 1`` blocks and ``N`` models after them.  Every miner stores the ``N``
    updates, the aggregate, and the genesis and the new block header.
    """
    if num_trainers < 1 or num_miners < 1:
        raise ValueError("need at least one trainer and one miner")
    if num_trainers % num_miners:
        raise ValueError("trainers must split evenly across the miners")
    message = blob_bytes + BCFL_MESSAGE_OVERHEAD
    block = blob_bytes + BCFL_BLOCK_HEADER
    delay = (2 * num_trainers * message
             + (num_miners - 1) * block) / bandwidth
    network = (num_trainers * (num_miners + 1) * message
               + (num_miners - 1) * block)
    storage = num_miners * ((num_trainers + 1) * blob_bytes
                            + 2 * BCFL_BLOCK_HEADER)
    return delay, network, storage
