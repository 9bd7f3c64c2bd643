"""Fixed-point encoding of gradients into commitment scalars.

Pedersen commitments live over Z_n (the curve group order); gradients are
floats.  We quantize each coordinate to a signed fixed-point integer with
``fractional_bits`` of precision and embed it in Z_n (negatives as
``n - |x|``).  The embedding is an additive homomorphism as long as the
running sums stay inside ``(-n/2, n/2)`` — with 2^256-order curves and
32-bit quantization there is headroom for billions of trainers — so the
scalar of a summed gradient equals the sum of the scalars, which is what
makes commitment products verify aggregated updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedPointCodec:
    """Quantizer between float vectors and Z_n scalar vectors."""

    order: int
    fractional_bits: int = 24

    def __post_init__(self):
        if self.order <= 3:
            raise ValueError("order must be a large prime")
        if not 0 < self.fractional_bits < 64:
            raise ValueError("fractional_bits must be in (0, 64)")

    @property
    def scale(self) -> int:
        """Multiplier applied before rounding."""
        return 1 << self.fractional_bits

    @property
    def half_order(self) -> int:
        return self.order // 2

    def encode_value(self, value: float) -> int:
        """One float -> one scalar in [0, order)."""
        quantized = int(round(float(value) * self.scale))
        return quantized % self.order

    def decode_value(self, scalar: int) -> float:
        """One scalar -> the float it encodes (centered lift)."""
        scalar %= self.order
        if scalar > self.half_order:
            scalar -= self.order
        return scalar / self.scale

    def encode(self, vector: np.ndarray) -> list:
        """Vector of floats -> list of scalars (python ints)."""
        array = np.asarray(vector, dtype=np.float64).ravel()
        quantized = np.rint(array * self.scale).astype(object)
        return [int(q) % self.order for q in quantized]

    def decode(self, scalars: list) -> np.ndarray:
        """List of scalars -> float64 vector."""
        return np.array([self.decode_value(s) for s in scalars],
                        dtype=np.float64)

    def quantize(self, vector: np.ndarray) -> np.ndarray:
        """The float vector actually represented after encoding.

        Aggregation must operate on *quantized* values for the commitment
        check to be exact: trainers commit to ``quantize(gradient)`` and
        upload the same quantized bytes.
        """
        array = np.asarray(vector, dtype=np.float64)
        return np.rint(array * self.scale) / self.scale
