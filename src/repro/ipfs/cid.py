"""Content identifiers (CIDs).

IPFS addresses every block by the hash of its bytes.  We implement a
CIDv1-style identifier: a SHA-256 multihash rendered in lowercase base32,
which is what the paper relies on for content addressing and integrity
("Cid = Hash(data) ... without knowing this hash, one cannot find data").
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass

__all__ = ["CID", "compute_cid"]

#: Multicodec prefixes: cidv1 (0x01), raw codec (0x55), sha2-256 (0x12),
#: digest length 32 (0x20) — mirroring go-ipfs defaults.
_PREFIX = bytes([0x01, 0x55, 0x12, 0x20])


@dataclass(frozen=True)
class CID:
    """An immutable content identifier (SHA-256 multihash)."""

    digest: bytes

    def __post_init__(self):
        if len(self.digest) != 32:
            raise ValueError("CID digest must be 32 bytes (sha2-256)")

    def encode(self) -> str:
        """Render as a CIDv1-style base32 string (``b...``)."""
        raw = _PREFIX + self.digest
        body = base64.b32encode(raw).decode("ascii").lower().rstrip("=")
        return "b" + body

    @classmethod
    def decode(cls, text: str) -> "CID":
        """Parse a string produced by :meth:`encode`."""
        if not text.startswith("b"):
            raise ValueError("not a base32 CIDv1 string")
        body = text[1:].upper()
        padding = "=" * (-len(body) % 8)
        raw = base64.b32decode(body + padding)
        if raw[: len(_PREFIX)] != _PREFIX:
            raise ValueError("unsupported CID prefix")
        return cls(digest=raw[len(_PREFIX):])

    def __str__(self) -> str:
        return self.encode()

    def __repr__(self) -> str:
        return f"CID({self.encode()[:16]}…)"


def compute_cid(data: bytes) -> CID:
    """The CID of ``data``: its SHA-256 digest, wrapped."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"CID input must be bytes, got {type(data).__name__}")
    return CID(digest=hashlib.sha256(data).digest())
