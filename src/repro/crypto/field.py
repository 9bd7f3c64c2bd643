"""Prime-field arithmetic.

Helpers over GF(p) used by the elliptic-curve layer: modular inverse,
Legendre symbol (by reciprocity) and modular square roots.  Square roots
need p ≡ 3 (mod 4), which both secp curves have
(``tests/test_crypto_field_curves.py`` asserts it for every curve): one
exponentiation gives the root, and −1 is a non-residue, which the shipped
generator witnesses rely on (``repro.crypto.hashing``).
"""

from __future__ import annotations


def inverse_mod(value: int, modulus: int) -> int:
    """The multiplicative inverse of ``value`` modulo ``modulus``.

    Raises ``ZeroDivisionError`` for ``value ≡ 0``.
    """
    value %= modulus
    if value == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return pow(value, -1, modulus)


def legendre_symbol(value: int, prime: int) -> int:
    """Legendre symbol (value|prime): 1, -1, or 0 for value ≡ 0.

    The Jacobi symbol by binary quadratic reciprocity: Euler's criterion
    for every odd prime, at a fifth of the exponentiation's cost."""
    value %= prime
    modulus = prime
    symbol = 1
    while value:
        twos = (value & -value).bit_length() - 1
        value >>= twos
        if twos & 1 and (modulus & 7) in (3, 5):  # (2|n) = -1
            symbol = -symbol
        if value & modulus & 2:  # reciprocity: both ≡ 3 (mod 4)
            symbol = -symbol
        value, modulus = modulus % value, value
    return symbol if modulus == 1 else 0


def sqrt_mod(value: int, prime: int) -> int:
    """A square root of ``value`` modulo a prime ``p ≡ 3 (mod 4)``.

    Returns the even root's companion arbitrarily (callers needing a
    specific parity, e.g. point decompression, adjust themselves).
    Raises ``ValueError`` if ``value`` is a non-residue or the prime is
    not 3 mod 4.
    """
    if prime % 4 != 3:
        raise ValueError(f"square roots need a prime ≡ 3 (mod 4), not {prime}")
    value %= prime
    # One exponentiation: the candidate root squares back to ``value``
    # exactly when ``value`` is a residue (0 included).
    root = pow(value, (prime + 1) // 4, prime)
    if root * root % prime != value:
        raise ValueError(f"{value} is not a quadratic residue mod {prime}")
    return root
