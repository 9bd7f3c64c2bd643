"""Unit and property tests for EC point arithmetic and scalar multiplication."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.curves import SECP256K1, SECP256R1
from repro.crypto.group import Point, generator, scalar_mult, wnaf


def naive_scalar_mult(scalar: int, point: Point) -> Point:
    """Independent double-and-add reference implementation."""
    scalar %= point.curve.n
    result = Point.identity(point.curve)
    addend = point
    while scalar:
        if scalar & 1:
            result = result + addend
        addend = addend + addend
        scalar >>= 1
    return result


# -- basic group law ---------------------------------------------------------------


def test_identity_is_neutral():
    g = generator(SECP256K1)
    identity = Point.identity(SECP256K1)
    assert g + identity == g
    assert identity + g == g
    assert identity + identity == identity


def test_point_plus_negation_is_identity():
    g = generator(SECP256K1)
    assert (g + (-g)).is_identity
    assert (g - g).is_identity


def test_addition_commutative():
    g = generator(SECP256K1)
    g2 = g + g
    assert g + g2 == g2 + g


def test_addition_associative():
    g = generator(SECP256K1)
    a, b, c = g, g + g, g + g + g + g
    assert (a + b) + c == a + (b + c)


def test_known_double_secp256k1():
    """2G on secp256k1 (SEC test vector)."""
    g = generator(SECP256K1)
    g2 = g + g
    assert g2.x == int(
        "C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5",
        16,
    )


def test_off_curve_point_rejected():
    with pytest.raises(ValueError):
        Point(SECP256K1, 1, 1)


def test_half_identity_coordinates_rejected():
    with pytest.raises(ValueError):
        Point(SECP256K1, None, 5)


def test_points_on_different_curves_do_not_mix():
    with pytest.raises(ValueError):
        generator(SECP256K1) + generator(SECP256R1)


def test_point_immutable():
    g = generator(SECP256K1)
    with pytest.raises(AttributeError):
        g.x = 0


def test_point_equality_and_hash():
    g1 = generator(SECP256K1)
    g2 = generator(SECP256K1)
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != (g1 + g1)


# -- scalar multiplication ------------------------------------------------------------


def test_scalar_mult_small_values():
    g = generator(SECP256K1)
    assert scalar_mult(0, g).is_identity
    assert scalar_mult(1, g) == g
    assert scalar_mult(2, g) == g + g
    assert scalar_mult(3, g) == g + g + g


def test_scalar_mult_by_order_is_identity():
    for curve in (SECP256K1, SECP256R1):
        g = generator(curve)
        assert scalar_mult(curve.n, g).is_identity


def test_scalar_mult_order_minus_one_is_negation():
    g = generator(SECP256K1)
    assert scalar_mult(SECP256K1.n - 1, g) == -g


def test_scalar_mult_negative_scalar_wraps():
    g = generator(SECP256K1)
    assert scalar_mult(-1, g) == -g


def test_mul_operator():
    g = generator(SECP256K1)
    assert 5 * g == g * 5 == scalar_mult(5, g)


def test_scalar_mult_matches_naive_reference():
    g = generator(SECP256R1)
    for scalar in (7, 255, 256, 65537, 2**255 - 19):
        assert scalar_mult(scalar, g) == naive_scalar_mult(scalar, g)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=SECP256K1.n - 1))
def test_scalar_mult_property_vs_naive(scalar):
    g = generator(SECP256K1)
    assert scalar_mult(scalar, g) == naive_scalar_mult(scalar, g)


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=1, max_value=2**64),
    st.integers(min_value=1, max_value=2**64),
)
def test_scalar_mult_distributive(k1, k2):
    g = generator(SECP256K1)
    assert scalar_mult(k1, g) + scalar_mult(k2, g) == scalar_mult(k1 + k2, g)


def test_scalar_mult_composition():
    g = generator(SECP256K1)
    left = scalar_mult(7, scalar_mult(11, g))
    assert left == scalar_mult(77, g)


def test_result_stays_on_curve():
    g = generator(SECP256R1)
    point = scalar_mult(123456789, g)
    assert point.curve.is_on_curve(point.x, point.y)


# -- wNAF ------------------------------------------------------------------------


def test_wnaf_reconstructs_scalar():
    for scalar in (1, 2, 31, 255, 10**18):
        digits = wnaf(scalar, 5)
        assert sum(d << i for i, d in enumerate(digits)) == scalar


def test_wnaf_digits_are_odd_or_zero():
    for digit in wnaf(0xDEADBEEF, 4):
        assert digit == 0 or digit % 2 != 0
        assert -8 < digit < 8


def test_wnaf_validation():
    with pytest.raises(ValueError):
        wnaf(-1)
    with pytest.raises(ValueError):
        wnaf(5, width=1)


@given(st.integers(min_value=0, max_value=2**256))
def test_wnaf_property(scalar):
    digits = wnaf(scalar, 5)
    assert sum(d << i for i, d in enumerate(digits)) == scalar


# -- serialization ------------------------------------------------------------------


def test_compressed_roundtrip():
    g = generator(SECP256K1)
    for point in (g, g + g, scalar_mult(12345, g)):
        data = point.to_bytes()
        assert len(data) == 33
        assert Point.from_bytes(SECP256K1, data) == point


def test_identity_serialization():
    identity = Point.identity(SECP256K1)
    assert identity.to_bytes() == b"\x00"
    assert Point.from_bytes(SECP256K1, b"\x00").is_identity


def test_from_bytes_rejects_bad_input():
    with pytest.raises(ValueError):
        Point.from_bytes(SECP256K1, b"\x05" + bytes(32))
    with pytest.raises(ValueError):
        Point.from_bytes(SECP256K1, b"\x02" + bytes(31))


def test_parity_preserved():
    g = generator(SECP256R1)
    point = scalar_mult(99, g)
    recovered = Point.from_bytes(SECP256R1, point.to_bytes())
    assert recovered.y == point.y
