"""Short-Weierstrass curve parameters.

The paper's implementation uses Bouncy Castle "over elliptic curves
secp256r1 and secp256k1"; we carry the same two standardized curves
(SEC 2 / NIST P-256 parameters) for the Pedersen commitment layer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CurveParams:
    """Parameters of y^2 = x^3 + a·x + b over GF(p), order-n subgroup."""

    name: str
    p: int   # field prime
    a: int   # curve coefficient a
    b: int   # curve coefficient b
    n: int   # order of the base point (prime)
    h: int   # cofactor
    gx: int  # base point x
    gy: int  # base point y

    @property
    def bit_length(self) -> int:
        """Size of the field prime in bits."""
        return self.p.bit_length()

    @property
    def byte_length(self) -> int:
        """Size of one coordinate in bytes."""
        return (self.bit_length + 7) // 8

    def is_on_curve(self, x: int, y: int) -> bool:
        """Whether (x, y) satisfies the curve equation."""
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0


# SEC 2, "Recommended Elliptic Curve Domain Parameters", v2.0.
SECP256K1 = CurveParams(
    name="secp256k1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
    a=0,
    b=7,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    h=1,
    gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)

SECP256R1 = CurveParams(
    name="secp256r1",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    h=1,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
)

_CURVES = {curve.name: curve for curve in (SECP256K1, SECP256R1)}


def curve_by_name(name: str) -> CurveParams:
    """Look up a supported curve ('secp256k1' or 'secp256r1')."""
    try:
        return _CURVES[name]
    except KeyError:
        raise ValueError(
            f"unsupported curve {name!r}; choose from {sorted(_CURVES)}"
        ) from None
