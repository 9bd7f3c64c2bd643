"""Hashing utilities: SHA-256 wrappers and hash-to-curve.

Pedersen generators must be *nothing-up-my-sleeve* points: nobody may know
discrete-log relations between them, or the commitment loses its binding
property.  We derive each generator by try-and-increment hashing of a
domain-separated seed, the standard transparent construction.

Deriving a generator costs a Legendre symbol per hashed candidate and one
square root, a 254-bit exponentiation, for the accepted one.  For the
first 4 096 generators of the default domain the package ships a witness
per candidate instead, each checked by one squaring.  Both curves have
p ≡ 3 (mod 4), so −1 is a non-residue, and a w ≠ 0 with w² ≡ −rhs proves
a rejected candidate's right-hand side a non-residue; the accepted
candidate's witness is its y coordinate.  ``secp256k1.witnesses`` and
``secp256r1.witnesses`` hold a 4 096-byte header (byte ``i``: how many
candidates generator ``i`` rejects), then, generator after generator,
the rejected candidates' witnesses and the root, 32 big-endian bytes
each; a generator's offset is a prefix sum of the header.  The witnesses
are only a hint: ``hash_to_curve`` checks each against the hashed
candidate, so a stale or corrupted table raises instead of moving a
generator.  Regenerate a table (from the repo root) with::

    PYTHONPATH=src python -c "import sys, itertools; from repro.crypto.curves import curve_by_name; from repro.crypto.field import legendre_symbol as l, sqrt_mod as r; from repro.crypto.hashing import DEFAULT_DOMAIN as d, _candidates, _seed, hash_to_curve as h; c = curve_by_name(sys.argv[1]); s = [_seed(c, d, i) for i in range(4096)]; w = [[r(-rhs, c.p) for _, _, rhs in itertools.takewhile(lambda t: l(t[2], c.p) == -1, _candidates(c, seed))] + [h(c, seed).y] for seed in s]; sys.stdout.buffer.write(bytes(len(g) - 1 for g in w) + b''.join(v.to_bytes(32, 'big') for g in w for v in g))" secp256k1 > src/repro/crypto/secp256k1.witnesses
"""

from __future__ import annotations

import hashlib
from importlib import resources
from itertools import count
from typing import Iterator, Optional, Sequence, Tuple

from .curves import CurveParams
from .field import legendre_symbol, sqrt_mod
from .group import Point

DEFAULT_DOMAIN = b"repro/pedersen-generators/v1"

#: Generators with shipped witnesses: the witness table's header length.
_TABLE_GENERATORS = 4096
_WITNESS_BYTES = 32


def sha256(data: bytes) -> bytes:
    """SHA-256 digest (the hash IPFS and the paper's Fig. 3 baseline use)."""
    return hashlib.sha256(data).digest()


def _candidates(curve: CurveParams,
                seed: bytes) -> Iterator[Tuple[bytes, int, int]]:
    """``(digest, x, x^3 + ax + b)`` of the hashed candidates of ``seed``."""
    for counter in count():
        digest = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        x = int.from_bytes(digest, "big") % curve.p
        yield digest, x, (x * x * x + curve.a * x + curve.b) % curve.p


def hash_to_curve(curve: CurveParams, seed: bytes,
                  witness: Optional[Sequence[int]] = None) -> Point:
    """Map ``seed`` to a curve point by try-and-increment.

    Hash ``seed || counter`` to an x candidate until x^3 + ax + b is a
    quadratic residue (judged by its Legendre symbol, so only the accepted
    candidate pays an exponentiation, its square root); pick y's parity
    from the digest so the output is deterministic.  The expected number
    of attempts is 2.

    A non-empty ``witness`` replaces the symbols and the square root: one
    integer per candidate.  Each but the last must prove its candidate a
    non-residue (``0 < w < p`` and ``w² ≡ −rhs``, which needs
    p ≡ 3 (mod 4)); the last is the accepted candidate's root, which must
    square to its right-hand side and carry the digest's parity.  That
    makes the point the one derivation gives; otherwise ``ValueError``.
    """
    p = curve.p
    for counter, (digest, x, rhs) in enumerate(_candidates(curve, seed)):
        if not witness:
            if legendre_symbol(rhs, p) == -1:
                continue
            y = sqrt_mod(rhs, p)
            if (y & 1) != (digest[-1] & 1):
                y = p - y
        elif counter < len(witness) - 1:
            w = witness[counter]
            if 0 < w < p and (w * w + rhs) % p == 0:
                continue
            raise ValueError(
                f"witness does not prove candidate {counter} a non-residue")
        else:
            y = witness[-1]
            if not (0 <= y < p and y * y % p == rhs):
                raise ValueError(
                    f"claimed root does not square to candidate {counter}")
            if (y & 1) != (digest[-1] & 1):
                raise ValueError(
                    f"claimed root has the wrong parity at counter {counter}")
        return Point(curve, x, y, _skip_check=True)


def _seed(curve: CurveParams, domain: bytes, index: int) -> bytes:
    """The hash-to-curve seed of generator ``index``."""
    return domain + b"/" + curve.name.encode("ascii") + b"/" \
        + index.to_bytes(8, "big")


def _table(curve: CurveParams, domain: bytes) -> bytes:
    """The shipped witness table of ``curve``, or none off the default
    domain."""
    if domain == DEFAULT_DOMAIN:
        return resources.files(__package__).joinpath(
            f"{curve.name}.witnesses").read_bytes()
    return b""


def generator_stream(curve: CurveParams, domain: bytes = DEFAULT_DOMAIN,
                     start: int = 0) -> Iterator[Point]:
    """Yield the deterministic generator sequence h_start, h_start+1, ...

    Generators with shipped witnesses are verified against them, the rest
    are derived; both give ``hash_to_curve`` of the same seed.
    """
    table = _table(curve, domain)
    counts = table[:_TABLE_GENERATORS]
    offset = len(counts) + _WITNESS_BYTES * (sum(counts[:start]) + start)
    index = start
    while True:
        witness = None
        if index < len(counts):
            end = offset + _WITNESS_BYTES * (counts[index] + 1)
            witness = [int.from_bytes(table[at:at + _WITNESS_BYTES], "big")
                       for at in range(offset, end, _WITNESS_BYTES)]
            offset = end
        try:
            point = hash_to_curve(curve, _seed(curve, domain, index),
                                  witness)
        except ValueError as error:
            raise ValueError(
                f"shipped {curve.name} witnesses of generator {index}: "
                f"{error}") from None
        yield point
        index += 1
