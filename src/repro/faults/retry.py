"""Bounded exponential-backoff retry with deterministic jitter.

The paper assumes participants survive transient infrastructure trouble
(directory brown-outs, flapping links, IPFS node churn) by retrying; this
module provides the one shared policy every protocol actor uses, so
chaos runs degrade *bounded* instead of wedging forever.

Jitter must be deterministic for the seeded-replay guarantee: the same
``FaultPlan`` seed must yield a byte-identical manifest, so the jitter for
attempt *n* of operation *key* is derived from a SHA-256 digest rather than
a process-global RNG (and never from Python's randomised ``hash()``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


class RetryExhaustedError(Exception):
    """An operation failed on every attempt its :class:`RetryPolicy` allowed.

    Carries the logical operation name; the message says how many
    attempts were made.
    """

    def __init__(self, operation: str, attempts: int):
        super().__init__(f"{operation} failed after {attempts} attempt(s)")
        self.operation = operation


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic, keyed jitter.

    An operation gets :attr:`max_attempts` attempts.  Attempt *n*
    (0-based) that fails sleeps ``base_delay * multiplier**n`` seconds,
    capped at ``max_delay``, then scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` derived from SHA-256 of ``key:n`` so two
    actors retrying the same instant do not stay synchronised, yet every
    replay of the same run produces the same schedule.  The five values
    are class constants: every run uses this one policy.
    """

    max_attempts = 4
    base_delay = 0.5
    multiplier = 2.0
    max_delay = 30.0
    jitter = 0.1

    def backoff(self, attempt: int, key: str = "") -> float:
        """Delay (seconds) to sleep after failed ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        raw = min(self.base_delay * self.multiplier ** attempt,
                  self.max_delay)
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64  # [0, 1)
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))
