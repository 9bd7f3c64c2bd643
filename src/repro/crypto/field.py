"""Prime-field arithmetic.

Helpers over GF(p) used by the elliptic-curve layer: modular inverse,
Legendre symbol (by reciprocity) and modular square roots (Tonelli–Shanks,
with the fast ``p ≡ 3 (mod 4)`` path both secp curves take).
"""

from __future__ import annotations

__all__ = ["inverse_mod", "legendre_symbol", "sqrt_mod"]


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
    """A square root of ``value`` modulo an odd prime.

    Returns the even root's companion arbitrarily (callers needing a
    specific parity, e.g. point decompression, adjust themselves).
    Raises ``ValueError`` if ``value`` is a non-residue.
    """
    value %= prime
    if value == 0:
        return 0
    if prime % 4 == 3:
        # One exponentiation: the candidate root squares back to
        # ``value`` exactly when ``value`` is a residue.
        root = pow(value, (prime + 1) // 4, prime)
        if root * root % prime != value:
            raise ValueError(f"{value} is not a quadratic residue mod {prime}")
        return root
    if legendre_symbol(value, prime) != 1:
        raise ValueError(f"{value} is not a quadratic residue mod {prime}")
    # Tonelli–Shanks for p ≡ 1 (mod 4).
    q, s = prime - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    non_residue = 2
    while legendre_symbol(non_residue, prime) != -1:
        non_residue += 1
    c = pow(non_residue, q, prime)
    x = pow(value, (q + 1) // 2, prime)
    t = pow(value, q, prime)
    m = s
    while t != 1:
        t2 = t
        i = 0
        for i in range(1, m):
            t2 = t2 * t2 % prime
            if t2 == 1:
                break
        b = pow(c, 1 << (m - i - 1), prime)
        x = x * b % prime
        t = t * b * b % prime
        c = b * b % prime
        m = i
    return x
