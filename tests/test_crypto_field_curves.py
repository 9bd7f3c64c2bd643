"""Unit tests for prime-field arithmetic and curve parameters."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import curve_by_name
from repro.crypto.curves import _CURVES, SECP256K1, SECP256R1
from repro.crypto.field import inverse_mod, legendre_symbol, sqrt_mod
from repro.crypto.group import Point
from repro.crypto.hashing import hash_to_curve

#: Small odd primes covering every class p mod 8: 1 (17, 41, 73, 97),
#: 3 (3, 11, 19), 5 (5, 13, 29) and 7 (7, 23, 31).
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 73, 97)


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


def _euler(value, prime):
    """Euler's criterion value^((p-1)/2) mod p, mapped to 1 / -1 / 0."""
    power = pow(value % prime, (prime - 1) // 2, prime)
    return -1 if power == prime - 1 else power


@st.composite
def _symbol_inputs(draw):
    prime = draw(st.sampled_from((SECP256K1.p, SECP256R1.p) + SMALL_PRIMES))
    value = draw(st.one_of(
        st.integers(min_value=-2 * prime, max_value=2 * prime),
        st.integers(min_value=-2, max_value=2).map(lambda k: k * prime),
    ))
    return value, prime


@settings(max_examples=200)
@given(_symbol_inputs())
def test_legendre_symbol_equals_eulers_criterion(inputs):
    """Reciprocity gives Euler's criterion on every residue class of
    both curve primes and of small primes of each class mod 8, 0 and the
    multiples of p included."""
    value, prime = inputs
    assert legendre_symbol(value, prime) == _euler(value, prime)


def _hash_to_curve_by_square_root(curve, seed):
    """The reference: try-and-increment that rejects a candidate when its
    square root fails, one exponentiation per candidate."""
    counter = 0
    while True:
        digest = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        x = int.from_bytes(digest, "big") % curve.p
        rhs = (x * x * x + curve.a * x + curve.b) % curve.p
        try:
            y = sqrt_mod(rhs, curve.p)
        except ValueError:
            counter += 1
            continue
        if (y & 1) != (digest[-1] & 1):
            y = curve.p - y
        return Point(curve, x, y, _skip_check=True)


@pytest.mark.parametrize("curve", [SECP256K1, SECP256R1],
                         ids=lambda curve: curve.name)
def test_hash_to_curve_equals_square_root_try_and_increment(curve):
    for index in range(200):
        seed = b"equality/" + index.to_bytes(4, "big")
        assert hash_to_curve(curve, seed) == \
            _hash_to_curve_by_square_root(curve, seed)


def test_sqrt_mod_p3mod4():
    p = SECP256K1.p  # ≡ 3 (mod 4)
    root = sqrt_mod(4, p)
    assert root * root % p == 4


def test_sqrt_mod_p1mod4_raises():
    """Only p ≡ 3 (mod 4) is supported: every curve has it."""
    with pytest.raises(ValueError, match="3 \\(mod 4\\)"):
        sqrt_mod(4, 13)


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


def test_every_curve_prime_is_3_mod_4():
    """``sqrt_mod``'s one exponentiation and the shipped generator
    witnesses (−1 a non-residue) both need it."""
    assert _CURVES
    for curve in _CURVES.values():
        assert curve.p % 4 == 3, curve.name


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
