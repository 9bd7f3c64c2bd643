"""Per-node block storage with pinning and garbage collection."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..obs.events import BlockEvicted
from .block import Block
from .cid import CID

__all__ = ["Blockstore"]


class Blockstore:
    """The datastore of one IPFS node.

    Blocks are kept by CID.  *Pinned* blocks survive garbage collection;
    the FL protocol pins gradients/updates only for the iterations that
    still need them and unpins afterwards (the paper: data are "only
    needed for a short period of time").

    ``sim``/``owner`` let garbage collection report evictions on the
    simulation's event bus; both default to unset so standalone stores
    (unit tests, tooling) work without a simulator.
    :class:`~repro.ipfs.node.IPFSNode` passes both.
    """

    def __init__(self, sim=None, owner: str = ""):
        self.sim = sim
        self.owner = owner
        self._blocks: Dict[CID, Block] = {}
        self._pins: Set[CID] = set()
        self.total_bytes = 0

    def __contains__(self, cid: CID) -> bool:
        return cid in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def put(self, block: Block) -> CID:
        """Store and pin ``block`` (only pin it when already held)."""
        self._pins.add(block.cid)
        if block.cid not in self._blocks:
            self._blocks[block.cid] = block
            self.total_bytes += block.size
        return block.cid

    def get(self, cid: CID) -> Optional[Block]:
        """The stored block, or None."""
        return self._blocks.get(cid)

    def unpin(self, cid: CID) -> None:
        self._pins.discard(cid)

    def cids(self) -> Iterable[CID]:
        return self._blocks.keys()

    def _evict(self, cids: List[CID]) -> List[CID]:
        """Drop ``cids`` — the one way a block, and the buffer it aliases,
        leaves the store — reporting each eviction on the bus so leak
        monitors account for it.  Returns ``cids``."""
        sim = self.sim
        emit = sim is not None and sim.bus.wants(BlockEvicted)
        for cid in cids:
            size = self._blocks.pop(cid).size
            self.total_bytes -= size
            if emit:
                sim.bus.publish(BlockEvicted(
                    at=sim.now, node=self.owner, cid=cid, size=size,
                ))
        return cids

    def collect_garbage(self) -> List[CID]:
        """Drop every unpinned block; returns the CIDs removed."""
        return self._evict([cid for cid in self._blocks
                            if cid not in self._pins])
