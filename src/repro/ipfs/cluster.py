"""Replication across IPFS nodes (IPFS-cluster stand-in).

The paper's availability assumption ("an underlying distributed storage
protocol guarantees data availability, e.g. via IPFS cluster or
incentivized storage") and its future-work suggestion ("simply replicate
[data] through a predetermined number of IPFS nodes … ensure a uniform
allocation of gradients to nodes … based on the hash of the gradients and
the nodes id's") are both implemented here.

Replica placement uses **rendezvous (highest-random-weight) hashing** of
``(cid, node_id)``, which gives the uniform, collusion-resistant
allocation the paper asks for: no party controls which nodes end up
holding a given gradient.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

from ..sim import Simulator
from .cid import CID
from .node import IPFSNode, KIND_REPLICATE, REQUEST_OVERHEAD


def rendezvous_rank(cid: CID, node_names: Sequence[str]) -> List[str]:
    """Node names ordered by descending rendezvous weight for ``cid``."""
    def weight(name: str) -> bytes:
        return hashlib.sha256(cid.digest + name.encode("utf-8")).digest()

    return sorted(node_names, key=weight, reverse=True)


class ReplicationCluster:
    """Keeps every stored object on ``replication_factor`` nodes."""

    def __init__(self, sim: Simulator, nodes: Sequence[IPFSNode],
                 replication_factor: int = 2):
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.sim = sim
        self.nodes = list(nodes)
        self.replication_factor = replication_factor
        self._by_name = {node.name: node for node in self.nodes}
        for node in self.nodes:
            node.cluster = self
        #: Telemetry.
        self.replications = 0

    def replica_targets(self, cid: CID) -> List[str]:
        """The nodes that should hold ``cid``, by rendezvous hashing."""
        ranked = rendezvous_rank(cid, [node.name for node in self.nodes])
        return ranked[: self.replication_factor]

    def schedule_replication(self, origin: IPFSNode, root_cid: CID) -> None:
        """Fan the object out from ``origin`` to its rendezvous targets.

        Called by a node right after serving a put.  Replication happens
        in the background over the emulated network, charging the origin's
        uplink, so availability costs show up in measurements.
        """
        data = origin.load_object(root_cid)
        if data is None:
            return
        for target_name in self.replica_targets(root_cid):
            if target_name == origin.name:
                continue
            target = self._by_name.get(target_name)
            if target is None or not target.online:
                continue
            self.replications += 1
            origin.endpoint.send(
                target_name, KIND_REPLICATE, payload=data,
                size=len(data) + REQUEST_OVERHEAD,
            )
