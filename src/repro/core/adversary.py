"""Aggregator behaviours: honest and malicious (Sec. III-A).

"We consider malicious aggregators that can either *drop* or *alter* the
gradients received by trainers."  A behaviour hooks the two places an
aggregator handles data: selecting which received gradients enter its sum,
and producing the bytes it uploads.  Verifiable aggregation must detect
every one of these.
"""

from __future__ import annotations

from typing import Dict

from .partition import decode_partition, encode_partition


class AggregatorBehavior:
    """Strategy interface; the default is honest."""

    #: Human-readable tag used in telemetry.
    name = "honest"

    def select_gradients(self, blobs: Dict[str, bytes]) -> Dict[str, bytes]:
        """Choose which received gradient blobs enter the aggregation."""
        return blobs

    def tamper_update(self, blob: bytes) -> bytes:
        """Transform the aggregate before uploading it."""
        return blob


class HonestBehavior(AggregatorBehavior):
    """Follows the protocol."""


class DropGradientsBehavior(AggregatorBehavior):
    """Silently omits a fraction of trainers' gradients.

    The incompleteness attack: "deny downloading updates from some clients
    to save bandwidth and power".
    """

    name = "drop"

    def __init__(self, keep_fraction: float = 0.5):
        if not 0.0 <= keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")
        self.keep_fraction = keep_fraction

    def select_gradients(self, blobs: Dict[str, bytes]) -> Dict[str, bytes]:
        keep = max(1, int(len(blobs) * self.keep_fraction)) if blobs else 0
        kept_keys = sorted(blobs)[:keep]
        return {key: blobs[key] for key in kept_keys}


class AlterUpdateBehavior(AggregatorBehavior):
    """Perturbs the aggregate (model-poisoning attack)."""

    name = "alter"

    def __init__(self, offset: float = 1.0):
        self.offset = offset

    def tamper_update(self, blob: bytes) -> bytes:
        values, counter = decode_partition(blob)
        tampered = values + self.offset
        return encode_partition(tampered, counter)


class ReplayUpdateBehavior(AggregatorBehavior):
    """Replays the previous round's aggregate instead of computing a new
    one — the cheapest possible "lazy server" that still looks active.

    Verifiable aggregation catches it because each round's accumulated
    commitment binds *that round's* gradients: a stale pre-image fails
    the product check.
    """

    name = "replay"

    def __init__(self):
        self._previous: bytes = b""

    def tamper_update(self, blob: bytes) -> bytes:
        replayed = self._previous or blob  # first round: nothing to replay
        self._previous = blob
        return replayed


class LazyBehavior(AggregatorBehavior):
    """Aggregates only the first gradient (by uploader name) to "reduce
    costs by performing less accurate computations"."""

    name = "lazy"

    def select_gradients(self, blobs: Dict[str, bytes]) -> Dict[str, bytes]:
        return {key: blobs[key] for key in sorted(blobs)[:1]}
