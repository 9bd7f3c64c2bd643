"""Cryptography: elliptic curves, multi-exponentiation, Pedersen commitments.

Everything is implemented from first principles (prime-field arithmetic up)
— the stand-in for the paper's Bouncy Castle dependency.

Public surface:

- :class:`CurveParams` / :func:`curve_by_name` — the paper's two curves,
  secp256k1 and secp256r1 (:mod:`repro.crypto.curves`).
- :class:`PedersenParams` / :class:`Commitment` — vector commitments.
- :class:`FixedPointCodec` — gradient <-> scalar encoding.
- :func:`sha256`.

The group, multi-exponentiation and field arithmetic beneath them live
in their modules: :class:`~repro.crypto.group.Point` (with
``generator`` and ``wnaf``), :func:`~repro.crypto.multiexp.multi_scalar_mult`
(Straus / Pippenger, chosen by counted group additions over the centred
lift of the scalars) and :mod:`repro.crypto.field`.
"""

from .curves import CurveParams, curve_by_name
from .encoding import FixedPointCodec
from .hashing import sha256
from .pedersen import Commitment, PedersenParams

__all__ = [
    "Commitment",
    "CurveParams",
    "FixedPointCodec",
    "PedersenParams",
    "curve_by_name",
    "sha256",
]
