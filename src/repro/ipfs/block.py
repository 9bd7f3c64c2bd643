"""Blocks and chunked objects.

A :class:`Block` is the unit of storage and exchange: raw bytes addressed by
their CID.  Larger logical objects (the paper moves ~1.3 MB gradient
partitions; go-ipfs chunks files at 256 KiB) are represented by
:func:`chunk_object`: leaf blocks plus a root *manifest* block listing the
leaf CIDs in order, so retrieving the root is enough to fetch and
rebuild the object with per-chunk integrity.  A root built here also
carries those CIDs as :attr:`Block.links`: the node that chunked an
object never parses its own manifest back.

Chunking copies nothing: the leaves are read-only ``memoryview`` slices of
the object's one immutable ``bytes`` buffer (mutable input is snapshotted
once), and :func:`join_leaves` hands that buffer back when asked for the
bytes of all its slices in order.  Hashing is never skipped — every block
computes its CID from its bytes at construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .cid import CID, compute_cid

#: go-ipfs default chunker size.
DEFAULT_CHUNK_SIZE = 256 * 1024

_MANIFEST_MAGIC = "repro-ipfs-manifest-v1"


@dataclass(frozen=True)
class Block:
    """Immutable bytes plus their content address.

    ``data`` is ``bytes`` or a view of ``bytes``; anything else — a
    ``bytearray``, a view of memory somebody can still write — is
    snapshotted here, so the bytes can never change under the CID.
    ``offset`` is where a leaf cut by :func:`chunk_object` starts in the
    buffer it views (None: not known to be such a slice); ``links`` is
    the ordered leaf CIDs of a root that :func:`chunk_object` built (None:
    a leaf, or bytes whose manifest has not been parsed).
    """

    data: bytes
    offset: Optional[int] = field(default=None, compare=False, repr=False)
    links: Optional[Tuple[CID, ...]] = field(default=None, compare=False,
                                             repr=False)
    cid: CID = field(init=False)

    def __post_init__(self):
        data = self.data
        if not isinstance(data, bytes) and not (
                isinstance(data, memoryview) and isinstance(data.obj, bytes)):
            data = bytes(data)
            object.__setattr__(self, "data", data)
        object.__setattr__(self, "cid", compute_cid(data))

    @property
    def size(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"<Block {self.cid.encode()[:16]}… {self.size}B>"


def chunk_object(data: bytes,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> Tuple[Block, List[Block]]:
    """Split ``data`` into leaf blocks plus a root manifest block.

    Returns ``(root, leaves)``.  Data that fits in one chunk still gets a
    manifest so callers handle one uniform shape.  The leaves alias
    ``data`` when it is ``bytes``, and one snapshot of it otherwise.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    view = memoryview(data if isinstance(data, bytes) else bytes(data))
    leaves = [
        Block(view[offset:offset + chunk_size], offset)
        for offset in range(0, len(view), chunk_size)
    ] or [Block(b"")]
    manifest = {
        "magic": _MANIFEST_MAGIC,
        "total_size": len(view),
        "chunks": [leaf.cid.encode() for leaf in leaves],
    }
    root = Block(json.dumps(manifest, sort_keys=True).encode("utf-8"),
                 links=tuple(leaf.cid for leaf in leaves))
    return root, leaves


def parse_manifest(root: Block) -> List[CID]:
    """The ordered leaf CIDs of a manifest block: the links it carries,
    or — for a root that arrived as raw bytes — its parsed manifest."""
    if root.links is not None:
        return list(root.links)
    try:
        manifest = json.loads(str(root.data, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError("not a manifest block") from exc
    if not isinstance(manifest, dict) or manifest.get("magic") != _MANIFEST_MAGIC:
        raise ValueError("not a manifest block")
    return [CID.decode(text) for text in manifest["chunks"]]


def join_leaves(leaves: Sequence[Block]) -> bytes:
    """The bytes of ``leaves``, concatenated in the order given.

    Leaves that are the consecutive slices of one whole buffer — an object
    stored by :func:`chunk_object` and still held complete — yield that
    buffer itself; anything else (leaves fetched one by one, leaves shared
    with another object) is joined into a fresh one.
    """
    whole = getattr(leaves[0].data, "obj", None) if leaves else None
    end = 0
    for leaf in leaves:
        if getattr(leaf.data, "obj", None) is not whole or leaf.offset != end:
            break
        end += leaf.size
    else:
        if whole is not None and end == len(whole):
            return whole
    return b"".join(leaf.data for leaf in leaves)

