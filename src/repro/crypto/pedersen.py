"""Pedersen vector commitments with homomorphic combination.

The scheme of the paper's Sec. IV-A: public parameters are ``n`` generators
``{h_i}`` of a prime-order group with unknown mutual discrete logs; a
commitment to vector ``v`` is ``C = ∏ h_i^{v_i}``, a single group element.
It is *vector-binding* under the discrete-log assumption and
*homomorphic*: ``C(v1) · C(v2) = C(v1 + v2)``, which lets the directory
service accumulate trainer commitments and verify an aggregate against the
product without touching individual gradients.

Commitments are deterministic (non-hiding), as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Sequence, Tuple

from .curves import CurveParams
from .group import Point
from .hashing import DEFAULT_DOMAIN, generator_stream
from .multiexp import multi_scalar_mult

#: Cache of generator prefixes, keyed by (curve, domain); a generator costs
#: about two hashes plus, derived, a Legendre symbol per candidate and a
#: square root, or, verified against its shipped witnesses, a squaring per
#: candidate, so sessions and benchmarks that set up parameter vectors
#: repeatedly in one process share the work.
_GENERATOR_CACHE: Dict[Tuple[str, bytes], List[Point]] = {}


@dataclass(frozen=True)
class Commitment:
    """A commitment: one group element.  ``*`` combines homomorphically."""

    point: Point

    @classmethod
    def identity(cls, curve: CurveParams) -> "Commitment":
        """The neutral commitment (commits to the zero vector)."""
        return cls(Point.identity(curve))

    def combine(self, other: "Commitment") -> "Commitment":
        """The commitment to the sum of the two committed vectors."""
        return Commitment(self.point + other.point)

    def __mul__(self, other: "Commitment") -> "Commitment":
        if not isinstance(other, Commitment):
            return NotImplemented
        return self.combine(other)

    def to_bytes(self) -> bytes:
        """Compressed serialization (33 bytes, or 1 for identity)."""
        return self.point.to_bytes()

    @classmethod
    def from_bytes(cls, curve: CurveParams, data: bytes) -> "Commitment":
        return cls(Point.from_bytes(curve, data))

    @classmethod
    def product(cls, commitments: Sequence["Commitment"],
                curve: CurveParams) -> "Commitment":
        """Accumulate many commitments (∏ C_k)."""
        result = cls.identity(curve)
        for commitment in commitments:
            result = result.combine(commitment)
        return result

    def __repr__(self) -> str:
        return f"<Commitment {self.to_bytes().hex()[:16]}…>"


class PedersenParams:
    """Public parameters: the generator vector for length-``size`` inputs."""

    def __init__(self, curve: CurveParams, size: int,
                 domain: bytes = DEFAULT_DOMAIN):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.curve = curve
        self.size = size
        cache_key = (curve.name, domain)
        cached = _GENERATOR_CACHE.setdefault(cache_key, [])
        if len(cached) < size:
            cached.extend(islice(generator_stream(curve, domain, len(cached)),
                                 size - len(cached)))
        self.generators: List[Point] = cached[:size]

    @classmethod
    def setup(cls, curve: CurveParams, size: int,
              domain: bytes = DEFAULT_DOMAIN) -> "PedersenParams":
        """Transparent setup (no trusted dealer): ``size`` generators, each
        derived or checked against its shipped root."""
        return cls(curve, size, domain)

    def commit(self, values: Sequence[int]) -> Commitment:
        """Commit to a scalar vector: ``C = ∏ h_i^{v_i}``.

        ``values`` shorter than ``size`` are zero-padded; longer is an
        error.
        """
        if len(values) > self.size:
            raise ValueError(
                f"vector of length {len(values)} exceeds parameter size "
                f"{self.size}"
            )
        scalars = list(values)
        points = self.generators[:len(scalars)]
        if not scalars:
            return Commitment.identity(self.curve)
        # Reduction, zero-dropping and the centred lift happen once, in
        # the multi-exponentiation's own normalisation pass.
        return Commitment(multi_scalar_mult(scalars, points))

    def verify(self, commitment: Commitment, values: Sequence[int]) -> bool:
        """Check that ``values`` open ``commitment``."""
        return self.commit(values) == commitment
