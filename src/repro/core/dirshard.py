"""Directory deployment profile and key placement (Sec. VI load scaling).

The paper names directory load — O(trainers x partitions) registrations
per iteration — as the dominant scaling bottleneck: every registration
and every poll serializes through one
:class:`~repro.core.directory.DirectoryService` process.  The directory
is therefore always deployed as a group of shard servers
(:class:`~repro.core.directory.ShardedDirectory`), each owning a range
of ``(partition_id, iteration)`` keys under the Kademlia XOR metric.
This module is the pure part — how many shards, and which of them own
a key:

- :class:`DirectoryProfile` is the third composable deployment profile
  (next to :class:`~repro.net.NetworkProfile` and
  :class:`~repro.faults.FaultPlan`): ``FLSession(..., directory=
  DirectoryProfile(shards=4))``.  The default, ``shards=1``, is the
  paper's single directory: a group of one on the well-known
  ``"directory"`` host.
- :class:`ShardMap` places keys on shards: ``consistent-hash`` ranks
  shards by XOR distance from ``sha256("dir:<partition>:<iteration>")``
  (the :func:`directory_key`), ``modulo`` round-robins for guaranteed
  balance at tiny partition counts.  The first ``replication`` shards in
  placement order own the key; clients fail over down that list.  It is
  the only place that knows how many shards there are — servers accept
  what arrives, and :class:`~repro.core.directory.DirectoryClient` asks
  the map where to send.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["DirectoryProfile", "ShardMap", "directory_key"]

_PLACEMENTS = ("consistent-hash", "modulo")


def _node_key(name: str) -> int:
    """A name's key in the 256-bit Kademlia space: its SHA-256."""
    return int.from_bytes(
        hashlib.sha256(name.encode("utf-8")).digest(), "big"
    )


def _xor_distance(a: int, b: int) -> int:
    """The Kademlia metric."""
    return a ^ b


def directory_key(partition_id: int, iteration: int) -> int:
    """A ``(partition, iteration)`` key in the 256-bit Kademlia space."""
    return _node_key(f"dir:{partition_id}:{iteration}")


@dataclass(frozen=True)
class DirectoryProfile:
    """How the directory service is deployed (the third profile).

    ``shards=1`` (the default) is the paper's single directory on the
    well-known ``"directory"`` host.  With ``shards >= 2``, each shard
    runs on its own host and owns the keys :class:`ShardMap` places on
    it; ``replication`` > 1 gives every key that many owners, and
    clients holding a :class:`~repro.faults.RetryPolicy` fail over down
    the owner list when a shard stops answering.

    ``processing_delay`` is the serialized server seconds per request
    unit (zero by default; set it to study the directory as a
    bottleneck — requests then queue behind each other);
    ``bandwidth_mbps`` constrains each shard's link (default:
    unconstrained, directory traffic being metadata-only).
    """

    shards: int = 1
    replication: int = 1
    placement: str = "consistent-hash"
    processing_delay: float = 0.0
    bandwidth_mbps: Optional[float] = None

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.replication > self.shards:
            raise ValueError(
                f"replication {self.replication} cannot exceed the "
                f"{self.shards} shard(s)"
            )
        if self.placement not in _PLACEMENTS:
            raise ValueError(
                f"placement must be one of {_PLACEMENTS}, "
                f"not {self.placement!r}"
            )
        if self.processing_delay < 0:
            raise ValueError("processing_delay must be non-negative")
        if self.bandwidth_mbps is not None and self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")


class ShardMap:
    """Deterministic key placement over a fixed shard list.

    ``owners(partition_id, iteration)`` returns the ``replication``
    shards responsible for that key, primary first.  Pure function of
    the constructor arguments — every client and the server group share
    one instance, and a replayed run places identically.
    """

    def __init__(self, shard_names: Sequence[str], replication: int = 1,
                 placement: str = "consistent-hash"):
        if not shard_names:
            raise ValueError("need at least one shard")
        if placement not in _PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}")
        self.shard_names: Tuple[str, ...] = tuple(shard_names)
        self.replication = min(max(1, replication), len(self.shard_names))
        self.placement = placement
        self._keys = [(_node_key(name), name) for name in self.shard_names]
        self._cache: Dict[Tuple[int, int], Tuple[str, ...]] = {}

    def owners(self, partition_id: int, iteration: int) -> Tuple[str, ...]:
        """The shards owning ``(partition_id, iteration)``, primary first."""
        key = (partition_id, iteration)
        owners = self._cache.get(key)
        if owners is None:
            if self.placement == "modulo":
                total = len(self.shard_names)
                first = (partition_id + iteration) % total
                owners = tuple(
                    self.shard_names[(first + offset) % total]
                    for offset in range(self.replication)
                )
            else:
                target = directory_key(partition_id, iteration)
                ranked = sorted(
                    self._keys,
                    key=lambda entry: _xor_distance(entry[0], target),
                )
                owners = tuple(
                    name for _, name in ranked[:self.replication]
                )
            self._cache[key] = owners
        return owners

    def primary(self, partition_id: int, iteration: int) -> str:
        return self.owners(partition_id, iteration)[0]
