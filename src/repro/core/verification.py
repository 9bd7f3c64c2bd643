"""Verifiable aggregation: binding partitions to Pedersen commitments.

Implements Sec. IV: trainers commit to each (quantized) gradient partition
including its averaging counter; the directory accumulates commitment
products per partition (and per aggregator's trainer subset); aggregates
are accepted only if their decoded values open the accumulated commitment.

Quantization matters: commitments live over Z_n, so trainers *upload the
quantized values they committed to*.  Sums of fixed-point float64 values
are exact, so the aggregated bytes decode to exactly the sum of the
committed scalars and the homomorphic check is equality, not tolerance.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..crypto import (
    Commitment,
    CurveParams,
    FixedPointCodec,
    PedersenParams,
    curve_by_name,
)
from .partition import decode_partition, encode_partition

__all__ = ["PartitionCommitter", "CommitmentCostModel"]


class PartitionCommitter:
    """Commitment machinery for partitions of a fixed length."""

    def __init__(self, partition_len: int, curve: str = "secp256k1",
                 fractional_bits: int = 16):
        if partition_len < 1:
            raise ValueError("partition_len must be >= 1")
        self.partition_len = partition_len
        self.curve: CurveParams = curve_by_name(curve)
        self.codec = FixedPointCodec(
            order=self.curve.n, fractional_bits=fractional_bits
        )
        # One extra generator for the appended averaging counter.
        self.params = PedersenParams.setup(self.curve, partition_len + 1)

    # -- trainer side -------------------------------------------------------------

    def encode_and_commit(
        self, values: np.ndarray
    ) -> Tuple[bytes, Commitment]:
        """Quantize, wire-encode and commit one trainer's partition.

        Returns ``(blob, commitment)`` where the commitment binds exactly
        the values carried by ``blob``, including the averaging counter
        of one contribution.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.shape[0] != self.partition_len:
            raise ValueError(
                f"expected {self.partition_len} values, got {values.shape[0]}"
            )
        quantized = self.codec.quantize(values)
        blob = encode_partition(quantized, 1.0)
        scalars = self.codec.encode(quantized) + [
            self.codec.encode_value(1.0)
        ]
        return blob, self.params.commit(scalars)

    # -- verifier side ----------------------------------------------------------------

    def open_blob(self, blob: bytes) -> Tuple[Commitment, float]:
        """Recompute ``(commitment, averaging counter)`` of a blob.

        One decode pass serves both the equality check and the audit
        trail: the counter is the number of gradients summed into the
        blob, which is exactly the signal forensics needs to tell a
        dropped/lazy aggregate (counter < contributors) from an altered
        one (counter intact, commitment mismatched).
        """
        values, counter = decode_partition(blob)
        scalars = self.codec.encode(values) + [
            self.codec.encode_value(counter)
        ]
        return self.params.commit(scalars), float(counter)

    def commitment_of_blob(self, blob: bytes) -> Commitment:
        """Recompute the commitment that binds an encoded partition."""
        commitment, _counter = self.open_blob(blob)
        return commitment

    def verify_blob(self, blob: bytes, expected: Commitment) -> bool:
        """Does ``blob`` open ``expected``?  The directory's check on
        global updates; also the aggregator's check on peers' partial
        updates and on merged downloads."""
        return self.commitment_of_blob(blob) == expected


class CommitmentCostModel:
    """Simulated-time cost of committing at model scale.

    Real commitments are always computed (the protocol's checks are
    genuine); this model additionally charges simulated seconds so runs
    with millions of parameters exhibit the Fig. 3 bottleneck without
    paying the wall-clock cost of a full-size multi-exponentiation.
    """

    def __init__(self, seconds_per_param: Optional[float]):
        if seconds_per_param is not None and seconds_per_param < 0:
            raise ValueError("seconds_per_param must be non-negative")
        self.seconds_per_param = seconds_per_param

    def commit_delay(self, num_params: int) -> float:
        """Simulated seconds to charge for committing ``num_params`` values."""
        if self.seconds_per_param is None:
            return 0.0
        return self.seconds_per_param * num_params

    def verify_delay(self, num_params: int) -> float:
        """Verification recomputes the commitment: same cost shape."""
        return self.commit_delay(num_params)
