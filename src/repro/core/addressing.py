"""Addressing metadata for the directory service.

"Every piece of information uploaded to the decentralized storage network
is associated with some 'addressing' meta-information … the tuple
``addr = (uploader_id, partition_id, iter, type)``" (Sec. III-C).
"""

from __future__ import annotations

from dataclasses import dataclass

GRADIENT = "gradient"
PARTIAL_UPDATE = "partial_update"
UPDATE = "update"

_KINDS = frozenset({GRADIENT, PARTIAL_UPDATE, UPDATE})


@dataclass(frozen=True)
class Address:
    """The directory key for one uploaded object."""

    uploader_id: str
    partition_id: int
    iteration: int
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"kind must be one of {sorted(_KINDS)}, got {self.kind!r}"
            )
        if self.partition_id < 0:
            raise ValueError("partition_id must be non-negative")
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")

    def __str__(self) -> str:
        return (
            f"{self.kind}/p{self.partition_id}/i{self.iteration}"
            f"/{self.uploader_id}"
        )
