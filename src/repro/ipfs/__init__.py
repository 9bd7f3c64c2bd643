"""Simulated IPFS: content-addressed storage over the emulated network.

Public surface:

- :class:`CID` — content identifiers
  (:func:`~repro.ipfs.cid.compute_cid` derives one).
- :class:`DHT` — provider records with lookup latency.
- :class:`IPFSNode` — a storage server process.
- :class:`IPFSClient` — participant-side put/get/merge-and-download.
- :class:`PubSub` — topic pub/sub.
- :class:`ReplicationCluster` — rendezvous-hashed replication.
- :func:`sum_f64` — the provider-side pre-aggregation (merge-and-download).
- :class:`IPFSError` — what every IPFS failure is; :class:`MergeError`.

Storage units (:class:`~repro.ipfs.block.Block`,
:func:`~repro.ipfs.block.chunk_object`) and per-node storage
(:class:`~repro.ipfs.blockstore.Blockstore`) live in their modules.
"""

from .cid import CID
from .cluster import ReplicationCluster
from .dht import DHT
from .errors import IPFSError, MergeError
from .merge import sum_f64
from .node import IPFSClient, IPFSNode
from .pubsub import PubSub

__all__ = [
    "CID",
    "DHT",
    "IPFSClient",
    "IPFSError",
    "IPFSNode",
    "MergeError",
    "PubSub",
    "ReplicationCluster",
    "sum_f64",
]
