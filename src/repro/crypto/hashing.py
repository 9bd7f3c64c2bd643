"""Hashing utilities: SHA-256 wrappers and hash-to-curve.

Pedersen generators must be *nothing-up-my-sleeve* points: nobody may know
discrete-log relations between them, or the commitment loses its binding
property.  We derive each generator by try-and-increment hashing of a
domain-separated seed, the standard transparent construction.

Deriving a generator costs one square root, a 254-bit exponentiation.  For
the first 4 096 generators of the default domain the package ships the
roots: ``secp256k1.roots`` and ``secp256r1.roots`` hold the y coordinate
of generator ``i`` as 32 big-endian bytes at offset ``32·i``.  A shipped
root is only a witness: ``hash_to_curve`` checks it against the hashed
candidates (a squaring and the Legendre symbols the derivation pays
anyway), so a stale or corrupted table raises instead of moving a
generator.  Regenerate a table (from the repo root) with::

    PYTHONPATH=src python -c "import sys; from repro.crypto.curves import curve_by_name as c; from repro.crypto.hashing import DEFAULT_DOMAIN as d, _seed, hash_to_curve as h; n = sys.argv[1]; sys.stdout.buffer.write(b''.join(h(c(n), _seed(c(n), d, i)).y.to_bytes(32, 'big') for i in range(4096)))" secp256k1 > src/repro/crypto/secp256k1.roots
"""

from __future__ import annotations

import hashlib
from importlib import resources
from typing import Iterator, Optional

from .curves import CurveParams
from .field import legendre_symbol, sqrt_mod
from .group import Point

__all__ = ["sha256", "hash_to_curve", "generator_stream"]

DEFAULT_DOMAIN = b"repro/pedersen-generators/v1"

_ROOT_BYTES = 32


def sha256(data: bytes) -> bytes:
    """SHA-256 digest (the hash IPFS and the paper's Fig. 3 baseline use)."""
    return hashlib.sha256(data).digest()


def hash_to_curve(curve: CurveParams, seed: bytes,
                  root: Optional[int] = None) -> Point:
    """Map ``seed`` to a curve point by try-and-increment.

    Hash ``seed || counter`` to an x candidate until x^3 + ax + b is a
    quadratic residue (judged by its Legendre symbol, so only the accepted
    candidate pays an exponentiation, its square root); pick y's parity
    from the digest so the output is deterministic.  The expected number
    of attempts is 2.

    A claimed ``root`` replaces the square root: it must square to the
    first residue candidate's right-hand side and carry the digest's
    parity, which makes the point the one derivation gives; otherwise
    ``ValueError``.
    """
    counter = 0
    while True:
        digest = hashlib.sha256(
            seed + counter.to_bytes(4, "big")
        ).digest()
        x = int.from_bytes(digest, "big") % curve.p
        rhs = (x * x * x + curve.a * x + curve.b) % curve.p
        if root is not None and 0 <= root < curve.p \
                and root * root % curve.p == rhs:
            if (root & 1) != (digest[-1] & 1):
                raise ValueError(
                    f"claimed root has the wrong parity at counter {counter}")
            return Point(curve, x, root, _skip_check=True)
        if legendre_symbol(rhs, curve.p) != -1:
            break
        counter += 1
    if root is not None:
        raise ValueError(
            f"claimed root does not square to the residue at counter "
            f"{counter}")
    y = sqrt_mod(rhs, curve.p)
    if (y & 1) != (digest[-1] & 1):
        y = curve.p - y
    return Point(curve, x, y, _skip_check=True)


def _seed(curve: CurveParams, domain: bytes, index: int) -> bytes:
    """The hash-to-curve seed of generator ``index``."""
    return domain + b"/" + curve.name.encode("ascii") + b"/" \
        + index.to_bytes(8, "big")


def _roots(curve: CurveParams, domain: bytes) -> bytes:
    """The shipped root table of ``curve``, or none off the default domain."""
    if domain == DEFAULT_DOMAIN:
        return resources.files(__package__).joinpath(
            f"{curve.name}.roots").read_bytes()
    return b""


def generator_stream(curve: CurveParams, domain: bytes = DEFAULT_DOMAIN,
                     start: int = 0) -> Iterator[Point]:
    """Yield the deterministic generator sequence h_start, h_start+1, ...

    Generators with a shipped root are verified against it, the rest are
    derived; both give ``hash_to_curve`` of the same seed.
    """
    roots = _roots(curve, domain)
    index = start
    while True:
        witness = roots[_ROOT_BYTES * index:_ROOT_BYTES * (index + 1)]
        root = int.from_bytes(witness, "big") if witness else None
        try:
            point = hash_to_curve(curve, _seed(curve, domain, index), root)
        except ValueError as error:
            raise ValueError(
                f"shipped {curve.name} root of generator {index}: "
                f"{error}") from None
        yield point
        index += 1
