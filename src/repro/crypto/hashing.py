"""Hashing utilities: SHA-256 wrappers and hash-to-curve.

Pedersen generators must be *nothing-up-my-sleeve* points: nobody may know
discrete-log relations between them, or the commitment loses its binding
property.  We derive each generator by try-and-increment hashing of a
domain-separated seed, the standard transparent construction.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from .curves import CurveParams
from .field import sqrt_mod
from .group import Point

__all__ = ["sha256", "hash_to_curve", "generator_stream"]

DEFAULT_DOMAIN = b"repro/pedersen-generators/v1"


def sha256(data: bytes) -> bytes:
    """SHA-256 digest (the hash IPFS and the paper's Fig. 3 baseline use)."""
    return hashlib.sha256(data).digest()


def hash_to_curve(curve: CurveParams, seed: bytes) -> Point:
    """Map ``seed`` to a curve point by try-and-increment.

    Hash ``seed || counter`` to an x candidate until x^3 + ax + b is a
    quadratic residue; pick y's parity from the digest so the output is
    deterministic.  The expected number of attempts is 2.
    """
    counter = 0
    while True:
        digest = hashlib.sha256(
            seed + counter.to_bytes(4, "big")
        ).digest()
        x = int.from_bytes(digest, "big") % curve.p
        rhs = (x * x * x + curve.a * x + curve.b) % curve.p
        try:
            y = sqrt_mod(rhs, curve.p)
        except ValueError:  # non-residue: next candidate
            counter += 1
            continue
        parity_bit = digest[-1] & 1
        if (y & 1) != parity_bit:
            y = curve.p - y
        return Point(curve, x, y, _skip_check=True)


def generator_stream(curve: CurveParams,
                     domain: bytes = DEFAULT_DOMAIN) -> Iterator[Point]:
    """Yield the infinite deterministic generator sequence h_0, h_1, ..."""
    index = 0
    while True:
        seed = domain + b"/" + curve.name.encode("ascii") + b"/" \
            + index.to_bytes(8, "big")
        yield hash_to_curve(curve, seed)
        index += 1
