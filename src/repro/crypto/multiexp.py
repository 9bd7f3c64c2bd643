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
its sign, not the 256 bits of ``n − |v|``.  Pippenger's signed digits
halve its buckets, which stay affine: their additions run in batches
sharing one field inversion.  Window widths and the Straus/Pippenger
choice minimise counted field multiplications for the input at hand.
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


# -- counted field multiplications -----------------------------------------------

#: Field multiplications (squarings too) of a Jacobian add, mixed add and
#: double, a batched affine add (3 for its share of the inversion, 3 for
#: slope, x, y) and a batch's one inversion (≈ 40 on CPython's integers).
_ADD, _MIXED, _DOUBLE, _AFFINE, _INVERSION = 16, 11, 10, 6, 40


def _straus_cost(count: int, bits: int, width: int) -> float:
    """Per term: its table of odd multiples (none at width 2) and an add
    per ``w + 1`` wNAF digits; one shared double per digit position."""
    table = _DOUBLE + ((1 << (width - 2)) - 1) * _ADD if width > 2 else 0
    return count * (table + (bits + 1) / (width + 1) * _ADD) \
        + (bits + 1) * _DOUBLE


def _windows(bits: int, window: int) -> Tuple[int, List[int]]:
    """``(offset, buckets per window)``: ``m + offset`` has the digits
    ``d + 2^(c−1) − 1`` of ``m``'s signed digits ``d ∈ (−2^(c−1),
    2^(c−1)]``, in one window more than ``bits / c`` (for the carry)."""
    half = 1 << (window - 1)
    windows = bits // window + 1
    offset = (half - 1) * (((1 << window * windows) - 1) // ((half << 1) - 1))
    top = (((1 << bits) - 1 + offset) >> window * (windows - 1)) - half + 1
    return offset, [half] * (windows - 1) + [max(top, 1)]


def _pippenger_cost(count: int, bits: int, window: int) -> float:
    """Per window of ``B`` buckets: the terms with a non-zero digit fill
    the ``E`` they occupy, each bit group (the buckets with bit ``k`` of
    their digit set) sums to one point, one inversion per batched pass,
    and a double and a mixed add per digit bit join the total."""
    cost = 0.0
    for buckets in _windows(bits, window)[1]:
        placed = count - count / (2 * buckets)
        occupied = buckets * (1 - (1 - 1 / buckets) ** placed)
        groups = buckets.bit_length()
        members = (buckets * (groups - 1) / 2 + 1) * occupied / buckets
        passes = int(placed // buckets).bit_length() + groups
        cost += (_AFFINE * (placed - occupied + members - groups)
                 + _INVERSION * passes + (_DOUBLE + _MIXED) * window)
    return cost


def _cheapest(cost, count: int, bits: int, candidates) -> Tuple[float, int]:
    """``(field multiplications, parameter)`` of the cheapest candidate."""
    return min([(cost(count, bits, c), c) for c in candidates])


_WIDTHS = range(2, 8)
_WINDOWS = range(2, 17)


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


def _batch_add(curve: CurveParams, pairs: List) -> None:
    """Append ``P + Q`` (slope ``rise / run``) to its group for each pair
    ``(group, x1, y1, x2, rise, run)``, with one inversion in all."""
    p = curve.p
    prefixes, product = [], 1
    for pair in pairs:
        prefixes.append(product)
        product = product * pair[5] % p
    inverse = pow(product, -1, p)  # of all runs; peeled back to front
    for (group, x1, y1, x2, rise, run), prefix in zip(reversed(pairs),
                                                       reversed(prefixes)):
        slope = rise * (inverse * prefix % p) % p
        inverse = inverse * run % p
        x3 = (slope * slope - x1 - x2) % p
        group.append((x3, (slope * (x1 - x3) - y1) % p))


def _affine_sums(curve: CurveParams, groups: List[List]) -> None:
    """Reduce each group of affine ``(x, y)`` in place to its sum (one
    point, or none), adding pairwise in passes of one batch each."""
    a = curve.a
    while True:
        pairs = []
        for group in groups:
            while len(group) > 1:
                x1, y1 = group.pop()
                x2, y2 = group.pop()
                if x1 != x2:
                    pairs.append((group, x1, y1, x2, y2 - y1, x2 - x1))
                elif y1 == y2:  # P + P: the tangent's slope
                    pairs.append((group, x1, y1, x1, 3 * x1 * x1 + a, y1 + y1))
                # else P + (−P): the pair cancels to the identity.
        if not pairs:
            return
        _batch_add(curve, pairs)


def _pippenger(curve: CurveParams, terms: List[Term], bits: int, window: int):
    p = curve.p
    half = 1 << (window - 1)
    mask = (half << 1) - 1
    offset, sizes = _windows(bits, window)
    accumulator = _JAC_IDENTITY
    for shift in range((len(sizes) - 1) * window, -1, -window):
        buckets: List[List] = [[] for _ in range(half)]  # digit d at d − 1
        for magnitude, x, y in terms:
            digit = ((magnitude + offset) >> shift & mask) - half + 1
            if digit > 0:
                buckets[digit - 1].append((x, y))
            elif digit < 0:  # −d·P = d·(−P), and negating is free
                buckets[-digit - 1].append((x, p - y))
        _affine_sums(curve, buckets)
        # Σ d·B_d = Σ_k 2^k · (Σ of the buckets whose d has bit k set):
        # affine sums again, then one double and mixed add per digit bit.
        groups = [[bucket[0] for digit, bucket in enumerate(buckets, 1)
                   if digit >> k & 1 and bucket] for k in range(window)]
        _affine_sums(curve, groups)
        for group in reversed(groups):
            if accumulator[2]:
                accumulator = _jac_double(curve, accumulator)
            if group:
                accumulator = _jac_add_mixed(curve, accumulator, *group[0])
    return accumulator


# -- public surface -----------------------------------------------------------------


def straus(scalars: Sequence[int], points: Sequence[Point],
           width: int = 0) -> Point:
    """Interleaved wNAF: shared doublings across all terms.

    Efficient for small batches (tens of points), e.g. re-checking a
    handful of accumulated commitments.  ``width = 0`` picks the wNAF
    width from the counted field-multiplication model.
    """
    curve, terms, bits = _lift(scalars, points)
    width = width or _cheapest(_straus_cost, len(terms), bits, _WIDTHS)[1]
    return Point.from_jacobian(curve, _straus(curve, terms, width))


def pippenger(scalars: Sequence[int], points: Sequence[Point],
              window: int = 0) -> Point:
    """Bucket-method multi-exponentiation.

    Cost ≈ ``(bits/c) · (n + c · 2^(c−2))`` batched affine additions
    (≈ 6 field multiplications each) for n terms of at most ``bits``
    centred magnitude bits in signed c-bit digits, versus ``n · bits/2``
    Jacobian additions for naive per-term wNAF — the difference between
    minutes and hours at model scale.  ``window = 0`` picks c from the
    counted field multiplications.
    """
    curve, terms, bits = _lift(scalars, points)
    window = window or _cheapest(
        _pippenger_cost, len(terms), bits, _WINDOWS)[1]
    return Point.from_jacobian(
        curve, _pippenger(curve, terms, bits, window)
    )


def multi_scalar_mult(scalars: Sequence[int],
                      points: Sequence[Point]) -> Point:
    """``∑ scalar_i · point_i`` (``∏ h_i^{v_i}``) by whichever of Straus
    and Pippenger counts fewer field multiplications for this input."""
    curve, terms, bits = _lift(scalars, points)
    count = len(terms)
    straus_cost, width = _cheapest(_straus_cost, count, bits, _WIDTHS)
    pippenger_cost, window = _cheapest(
        _pippenger_cost, count, bits, _WINDOWS)
    if straus_cost <= pippenger_cost:
        result = _straus(curve, terms, width)
    else:
        result = _pippenger(curve, terms, bits, window)
    return Point.from_jacobian(curve, result)
