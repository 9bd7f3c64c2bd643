"""Unit helpers for bandwidth and data sizes.

All internal quantities are bytes and bytes/second; these helpers convert
from the units the paper reports (Mbps link speeds, MB partition sizes).
"""

from __future__ import annotations

__all__ = ["mbps", "megabytes"]

BITS_PER_BYTE = 8


def mbps(value: float) -> float:
    """Megabits/second -> bytes/second (decimal mega, as in networking)."""
    return value * 1_000_000 / BITS_PER_BYTE


def megabytes(value: float) -> float:
    """Decimal megabytes -> bytes (the paper's 1.3MB partitions)."""
    return value * 1_000_000
