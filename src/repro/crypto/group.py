"""Elliptic-curve group operations.

Points on a short-Weierstrass curve with:

- affine representation at the API surface (:class:`Point`),
- Jacobian projective coordinates internally (no per-step field inversions),
- width-w NAF scalar multiplication,
- compressed SEC1 serialization.

This is the group ``G`` of the paper's Pedersen vector commitments; the
commitment product and exponentiations of Sec. IV all bottom out here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .curves import CurveParams
from .field import inverse_mod, sqrt_mod

#: Jacobian triple (X, Y, Z); Z == 0 encodes the identity.
Jacobian = Tuple[int, int, int]

_JAC_IDENTITY: Jacobian = (1, 1, 0)


class Point:
    """An immutable point on a named curve (or the identity)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: CurveParams, x: Optional[int],
                 y: Optional[int], _skip_check: bool = False):
        if (x is None) != (y is None):
            raise ValueError("both coordinates must be None (identity) or set")
        if x is not None and not _skip_check and not curve.is_on_curve(x, y):
            raise ValueError(f"({x}, {y}) is not on {curve.name}")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, *_args):
        raise AttributeError("Point is immutable")

    @classmethod
    def identity(cls, curve: CurveParams) -> "Point":
        return cls(curve, None, None)

    @property
    def is_identity(self) -> bool:
        return self.x is None

    # -- conversions ------------------------------------------------------------

    def to_jacobian(self) -> Jacobian:
        if self.is_identity:
            return _JAC_IDENTITY
        return (self.x, self.y, 1)

    @classmethod
    def from_jacobian(cls, curve: CurveParams, jac: Jacobian) -> "Point":
        x, y, z = jac
        if z == 0:
            return cls.identity(curve)
        p = curve.p
        z_inv = inverse_mod(z, p)
        z_inv2 = z_inv * z_inv % p
        return cls(curve, x * z_inv2 % p, y * z_inv2 * z_inv % p,
                   _skip_check=True)

    # -- serialization ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Compressed SEC1: 0x02/0x03 || x; identity is a single 0x00."""
        if self.is_identity:
            return b"\x00"
        prefix = 0x02 | (self.y & 1)
        return bytes([prefix]) + self.x.to_bytes(self.curve.byte_length, "big")

    @classmethod
    def from_bytes(cls, curve: CurveParams, data: bytes) -> "Point":
        """Parse a compressed SEC1 encoding (decompressing y)."""
        if data == b"\x00":
            return cls.identity(curve)
        if len(data) != 1 + curve.byte_length or data[0] not in (0x02, 0x03):
            raise ValueError("invalid compressed point encoding")
        x = int.from_bytes(data[1:], "big")
        if x >= curve.p:
            raise ValueError("x coordinate out of range")
        rhs = (x * x * x + curve.a * x + curve.b) % curve.p
        y = sqrt_mod(rhs, curve.p)
        if (y & 1) != (data[0] & 1):
            y = curve.p - y
        return cls(curve, x, y)

    # -- group law ----------------------------------------------------------------

    def __neg__(self) -> "Point":
        if self.is_identity:
            return self
        return Point(self.curve, self.x, (-self.y) % self.curve.p,
                     _skip_check=True)

    def __add__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            return NotImplemented
        if self.curve is not other.curve and self.curve != other.curve:
            raise ValueError("cannot add points on different curves")
        result = _jac_add(self.curve, self.to_jacobian(), other.to_jacobian())
        return Point.from_jacobian(self.curve, result)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __mul__(self, scalar: int) -> "Point":
        if not isinstance(scalar, int):
            return NotImplemented
        return scalar_mult(scalar, self)

    __rmul__ = __mul__

    # -- identity/equality -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return (self.curve.name == other.curve.name
                and self.x == other.x and self.y == other.y)

    def __hash__(self) -> int:
        return hash((self.curve.name, self.x, self.y))

    def __repr__(self) -> str:
        if self.is_identity:
            return f"<Point identity on {self.curve.name}>"
        return f"<Point x={hex(self.x)[:14]}… on {self.curve.name}>"


def generator(curve: CurveParams) -> Point:
    """The curve's standard base point G."""
    return Point(curve, curve.gx, curve.gy)


# -- Jacobian arithmetic ----------------------------------------------------------


def _jac_double(curve: CurveParams, point: Jacobian) -> Jacobian:
    x1, y1, z1 = point
    if z1 == 0 or y1 == 0:
        return _JAC_IDENTITY
    p = curve.p
    ysq = y1 * y1 % p
    s = 4 * x1 * ysq % p
    z1sq = z1 * z1 % p
    m = (3 * x1 * x1 + curve.a * z1sq * z1sq) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * ysq * ysq) % p
    z3 = 2 * y1 * z1 % p
    return (x3, y3, z3)


def _jac_add(curve: CurveParams, first: Jacobian,
             second: Jacobian) -> Jacobian:
    x1, y1, z1 = first
    x2, y2, z2 = second
    if z1 == 0:
        return second
    if z2 == 0:
        return first
    p = curve.p
    z1sq = z1 * z1 % p
    z2sq = z2 * z2 % p
    u1 = x1 * z2sq % p
    u2 = x2 * z1sq % p
    s1 = y1 * z2sq * z2 % p
    s2 = y2 * z1sq * z1 % p
    if u1 == u2:
        if s1 != s2:
            return _JAC_IDENTITY
        return _jac_double(curve, first)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    hsq = h * h % p
    hcu = hsq * h % p
    v = u1 * hsq % p
    x3 = (r * r - hcu - 2 * v) % p
    y3 = (r * (v - x3) - s1 * hcu) % p
    z3 = h * z1 * z2 % p
    return (x3, y3, z3)


def _jac_add_mixed(curve: CurveParams, first: Jacobian, x2: int,
                   y2: int) -> Jacobian:
    """Add an affine point (Z=1) to a Jacobian point — saves field work."""
    x1, y1, z1 = first
    if z1 == 0:
        return (x2, y2, 1)
    p = curve.p
    z1sq = z1 * z1 % p
    u2 = x2 * z1sq % p
    s2 = y2 * z1sq * z1 % p
    if x1 == u2:
        if y1 != s2:
            return _JAC_IDENTITY
        return _jac_double(curve, first)
    h = (u2 - x1) % p
    r = (s2 - y1) % p
    hsq = h * h % p
    hcu = hsq * h % p
    v = x1 * hsq % p
    x3 = (r * r - hcu - 2 * v) % p
    y3 = (r * (v - x3) - y1 * hcu) % p
    z3 = h * z1 % p
    return (x3, y3, z3)


# -- scalar multiplication ------------------------------------------------------------


def wnaf(scalar: int, width: int = 5) -> List[int]:
    """Width-w non-adjacent form of a non-negative scalar (LSB first)."""
    if scalar < 0:
        raise ValueError("wnaf expects a non-negative scalar")
    if width < 2:
        raise ValueError("width must be >= 2")
    digits: List[int] = []
    window = 1 << width
    half = 1 << (width - 1)
    while scalar > 0:
        if scalar & 1:
            digit = scalar % window
            if digit >= half:
                digit -= window
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


#: The wNAF window of :func:`scalar_mult`.
SCALAR_MULT_WIDTH = 5


def scalar_mult(scalar: int, point: Point) -> Point:
    """Compute ``scalar * point`` via wNAF with precomputed odd multiples."""
    curve = point.curve
    scalar %= curve.n
    if scalar == 0 or point.is_identity:
        return Point.identity(curve)

    # Precompute P, 3P, 5P, ..., (2^(w-1)-1)P in Jacobian form.
    precomp: List[Jacobian] = [point.to_jacobian()]
    twice = _jac_double(curve, precomp[0])
    for _ in range((1 << (SCALAR_MULT_WIDTH - 2)) - 1):
        precomp.append(_jac_add(curve, precomp[-1], twice))

    digits = wnaf(scalar, SCALAR_MULT_WIDTH)
    accumulator = _JAC_IDENTITY
    for digit in reversed(digits):
        accumulator = _jac_double(curve, accumulator)
        if digit > 0:
            accumulator = _jac_add(curve, accumulator, precomp[digit >> 1])
        elif digit < 0:
            x, y, z = precomp[(-digit) >> 1]
            accumulator = _jac_add(curve, accumulator, (x, (-y) % curve.p, z))
    return Point.from_jacobian(curve, accumulator)
