"""Multi-scalar multiplication (multi-exponentiation).

Computing a Pedersen vector commitment is one big multi-exponentiation
``∏ h_i^{v_i}``; its cost dominates the verifiability overhead the paper
measures in Fig. 3, and the paper names multi-exponentiation algorithms
[27, 28] as the standard optimization.  We implement both classics:

- **Straus** (interleaved wNAF) — best for a handful of terms,
- **Pippenger** (bucket method) — asymptotically optimal for the
  thousands-to-millions of terms a model-sized commitment needs,

plus an auto-dispatching :func:`multi_scalar_mult`.

Every path works on the **centred lift** of its scalars: ``s·P`` becomes
``|s̃|·(±P)`` with ``s̃ ∈ (−n/2, n/2]`` (negating an affine point is
free), so a quantised gradient costs its 17–19 magnitude bits whatever
its sign, not the 256 bits of ``n − |v|``.  Window widths and the
Straus/Pippenger choice minimise counted group additions for the term
count and bit length actually present; the ≈ ``bits`` doublings both
algorithms share are left out of the comparison.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .curves import CurveParams
from .group import (
    Point,
    _JAC_IDENTITY,
    _jac_add,
    _jac_add_mixed,
    _jac_double,
    wnaf,
)

__all__ = ["multi_scalar_mult", "straus", "pippenger"]

#: A lifted term ``(magnitude > 0, x, ±y)``.
Term = Tuple[int, int, int]


def _lift(scalars: Sequence[int],
          points: Sequence[Point]) -> Tuple[CurveParams, List[Term], int]:
    """Validate, centre and prune: ``(curve, terms, max magnitude bits)``.

    Zero scalars and identity points are dropped here, once.
    """
    if len(scalars) != len(points):
        raise ValueError(
            f"{len(scalars)} scalars vs {len(points)} points"
        )
    if not points:
        raise ValueError("empty multi-exponentiation; handle upstream")
    curve = points[0].curve
    order, p = curve.n, curve.p
    half = order >> 1
    terms: List[Term] = []
    union = 0  # OR of the magnitudes: same bit length as their maximum
    for scalar, point in zip(scalars, points):
        if point.curve.name != curve.name:
            raise ValueError("all points must live on the same curve")
        scalar %= order
        if scalar == 0 or point.x is None:
            continue
        if scalar > half:
            scalar = order - scalar
            terms.append((scalar, point.x, -point.y % p))
        else:
            terms.append((scalar, point.x, point.y))
        union |= scalar
    return curve, terms, union.bit_length()


# -- counted group additions ------------------------------------------------------


def _straus_adds(count: int, bits: int, width: int) -> float:
    """Per term: the table of odd multiples (``2^(w-2)`` operations; none
    at width 2) plus one addition per ``w + 1`` of its wNAF digits."""
    table = (1 << (width - 2)) if width > 2 else 0
    return count * (table + (bits + 1) / (width + 1))


def _pippenger_adds(count: int, bits: int, window: int) -> int:
    """Per window: one addition per term — into its bucket or, for the
    point a bucket was seeded with, when the sweep reaches that bucket —
    plus one running-total addition per bucket."""
    return -(-bits // window) * (count + (1 << window))


def _cheapest(adds, count: int, bits: int, candidates) -> Tuple[float, int]:
    """``(additions, parameter)`` of the cheapest candidate parameter."""
    return min([(adds(count, bits, c), c) for c in candidates])


_WIDTHS = range(2, 8)
_WINDOWS = range(1, 17)


# -- the two algorithms, on lifted terms ------------------------------------------


def _straus(curve: CurveParams, terms: List[Term], width: int):
    p = curve.p
    tables = []
    digit_rows = []
    for magnitude, x, y in terms:
        table = [(x, y, 1)]
        if width > 2:  # odd multiples P, 3P, ..., (2^(w-1) - 1)P
            twice = _jac_double(curve, table[0])
            for _ in range((1 << (width - 2)) - 1):
                table.append(_jac_add(curve, table[-1], twice))
        tables.append(table)
        digit_rows.append(wnaf(magnitude, width))

    accumulator = _JAC_IDENTITY
    for position in range(max(map(len, digit_rows), default=0) - 1, -1, -1):
        accumulator = _jac_double(curve, accumulator)
        for digits, table in zip(digit_rows, tables):
            if position >= len(digits):
                continue
            digit = digits[position]
            if digit > 0:
                accumulator = _jac_add(curve, accumulator, table[digit >> 1])
            elif digit < 0:
                x, y, z = table[(-digit) >> 1]
                accumulator = _jac_add(curve, accumulator, (x, -y % p, z))
    return accumulator


def _pippenger(curve: CurveParams, terms: List[Term], bits: int, window: int):
    mask = (1 << window) - 1
    accumulator = _JAC_IDENTITY
    # Only the windows some magnitude reaches, most significant first.
    for shift in range((bits - 1) // window * window, -1, -window):
        if accumulator[2]:
            for _ in range(window):
                accumulator = _jac_double(curve, accumulator)
        buckets: List = [None] * (mask + 1)  # by digit; slot 0 unused
        for magnitude, x, y in terms:
            digit = (magnitude >> shift) & mask
            if digit:
                held = buckets[digit]
                # The first point of a bucket is seeded from its affine
                # coordinates: no group operation.
                buckets[digit] = (x, y, 1) if held is None else \
                    _jac_add_mixed(curve, held, x, y)
        # Σ digit · bucket[digit] by running sums, starting at the
        # highest occupied bucket.
        running = window_sum = None
        for digit in range(mask, 0, -1):
            bucket = buckets[digit]
            if bucket is not None:
                running = bucket if running is None else \
                    _jac_add(curve, running, bucket)
            if running is not None:
                window_sum = running if window_sum is None else \
                    _jac_add(curve, window_sum, running)
        if window_sum is not None:
            accumulator = _jac_add(curve, accumulator, window_sum)
    return accumulator


# -- public surface -----------------------------------------------------------------


def straus(scalars: Sequence[int], points: Sequence[Point],
           width: int = 0) -> Point:
    """Interleaved wNAF: shared doublings across all terms.

    Efficient for small batches (tens of points), e.g. re-checking a
    handful of accumulated commitments.  ``width = 0`` picks the wNAF
    width from the counted-additions model.
    """
    curve, terms, bits = _lift(scalars, points)
    width = width or _cheapest(_straus_adds, len(terms), bits, _WIDTHS)[1]
    return Point.from_jacobian(curve, _straus(curve, terms, width))


def pippenger(scalars: Sequence[int], points: Sequence[Point],
              window: int = 0) -> Point:
    """Bucket-method multi-exponentiation.

    Cost ≈ ``(bits/c) · (n + 2^c)`` point additions for n terms of at
    most ``bits`` centred magnitude bits and bucket width c, versus
    ``n · bits/2`` for naive per-term wNAF — the difference between
    minutes and hours at model scale.  ``window = 0`` picks c from that
    count.
    """
    curve, terms, bits = _lift(scalars, points)
    window = window or _cheapest(
        _pippenger_adds, len(terms), bits, _WINDOWS)[1]
    return Point.from_jacobian(
        curve, _pippenger(curve, terms, bits, window)
    )


def multi_scalar_mult(scalars: Sequence[int],
                      points: Sequence[Point]) -> Point:
    """``∑ scalar_i · point_i`` (``∏ h_i^{v_i}``) by whichever of Straus
    and Pippenger counts fewer group additions for this input."""
    curve, terms, bits = _lift(scalars, points)
    count = len(terms)
    straus_adds, width = _cheapest(_straus_adds, count, bits, _WIDTHS)
    pippenger_adds, window = _cheapest(
        _pippenger_adds, count, bits, _WINDOWS)
    if straus_adds <= pippenger_adds:
        result = _straus(curve, terms, width)
    else:
        result = _pippenger(curve, terms, bits, window)
    return Point.from_jacobian(curve, result)
