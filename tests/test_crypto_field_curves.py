"""Unit tests for prime-field arithmetic and curve parameters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    curve_by_name,
    inverse_mod,
    sqrt_mod,
)
from repro.crypto.curves import SECP256K1, SECP256R1
from repro.crypto.field import legendre_symbol


# -- field ----------------------------------------------------------------------


def test_inverse_mod_small():
    assert inverse_mod(3, 7) == 5  # 3*5 = 15 ≡ 1 (mod 7)


def test_inverse_mod_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inverse_mod(0, 7)
    with pytest.raises(ZeroDivisionError):
        inverse_mod(14, 7)


@given(st.integers(min_value=1, max_value=10**9))
def test_inverse_mod_property(value):
    p = SECP256K1.p
    assert value * inverse_mod(value, p) % p == 1


def test_legendre_symbol_values():
    # mod 7: residues are {1, 2, 4}.
    assert legendre_symbol(1, 7) == 1
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 7) == -1
    assert legendre_symbol(0, 7) == 0


def test_sqrt_mod_p3mod4():
    p = SECP256K1.p  # ≡ 3 (mod 4)
    root = sqrt_mod(4, p)
    assert root * root % p == 4


def test_sqrt_mod_p1mod4_tonelli_shanks():
    p = 13  # ≡ 1 (mod 4)
    for value in (1, 3, 4, 9, 10, 12):
        root = sqrt_mod(value, p)
        assert root * root % p == value


def test_sqrt_mod_non_residue_raises():
    with pytest.raises(ValueError):
        sqrt_mod(3, 7)


def test_sqrt_mod_zero():
    assert sqrt_mod(0, 7) == 0


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=10**12))
def test_sqrt_of_square_property(value):
    p = SECP256R1.p
    square = value * value % p
    root = sqrt_mod(square, p)
    assert root * root % p == square


# -- curve parameters --------------------------------------------------------------


def test_base_points_on_curve():
    for curve in (SECP256K1, SECP256R1):
        assert curve.is_on_curve(curve.gx, curve.gy)


def test_field_primes_are_probable_primes():
    """Fermat checks with several bases (full primality is standardized)."""
    for curve in (SECP256K1, SECP256R1):
        for modulus in (curve.p, curve.n):
            for base in (2, 3, 5, 7):
                assert pow(base, modulus - 1, modulus) == 1


def test_curve_sizes():
    assert SECP256K1.bit_length == 256
    assert SECP256K1.byte_length == 32
    assert SECP256R1.bit_length == 256


def test_curve_lookup():
    assert curve_by_name("secp256k1") is SECP256K1
    assert curve_by_name("secp256r1") is SECP256R1
    with pytest.raises(ValueError):
        curve_by_name("ed25519")


def test_curves_differ():
    assert SECP256K1.p != SECP256R1.p
    assert SECP256K1.a == 0 and SECP256R1.a != 0
