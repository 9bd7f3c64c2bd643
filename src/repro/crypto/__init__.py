"""Cryptography: elliptic curves, multi-exponentiation, Pedersen commitments.

Everything is implemented from first principles (prime-field arithmetic up)
— the stand-in for the paper's Bouncy Castle dependency.

Public surface:

- :class:`CurveParams` / :func:`curve_by_name` — the paper's two curves,
  secp256k1 and secp256r1 (:mod:`repro.crypto.curves`).
- :class:`Point`, :func:`generator`, :func:`wnaf` — group ops.
- :func:`multi_scalar_mult` (Straus / Pippenger, chosen by counted
  group additions over the centred lift of the scalars).
- :class:`PedersenParams` / :class:`Commitment` — vector commitments.
- :class:`FixedPointCodec` — gradient <-> scalar encoding.
- :func:`inverse_mod`, :func:`sqrt_mod`, :func:`sha256`.
"""

from .curves import CurveParams, curve_by_name
from .encoding import FixedPointCodec
from .field import inverse_mod, sqrt_mod
from .group import Point, generator, wnaf
from .hashing import sha256
from .multiexp import multi_scalar_mult
from .pedersen import Commitment, PedersenParams

__all__ = [
    "Commitment",
    "CurveParams",
    "FixedPointCodec",
    "PedersenParams",
    "Point",
    "curve_by_name",
    "generator",
    "inverse_mod",
    "multi_scalar_mult",
    "sha256",
    "sqrt_mod",
    "wnaf",
]
