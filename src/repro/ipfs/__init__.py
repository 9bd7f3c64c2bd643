"""Simulated IPFS: content-addressed storage over the emulated network.

Public surface:

- :func:`compute_cid` / :class:`CID` — content identifiers.
- :class:`Block`, :func:`chunk_object` — storage units.
- :class:`Blockstore` — per-node storage with pinning/GC.
- :class:`DHT` — provider records with lookup latency.
- :class:`IPFSNode` — a storage server process.
- :class:`IPFSClient` — participant-side put/get/merge-and-download.
- :class:`PubSub` — topic pub/sub.
- :class:`ReplicationCluster` — rendezvous-hashed replication.
- :func:`register_merger` — provider-side pre-aggregation functions.
"""

from .block import (
    Block,
    DEFAULT_CHUNK_SIZE,
    chunk_object,
    parse_manifest,
)
from .blockstore import Blockstore
from .cid import CID, compute_cid
from .cluster import ReplicationCluster
from .dht import DHT
from .errors import (
    IntegrityError,
    IPFSError,
    MergeError,
    NodeOfflineError,
    NotFoundError,
)
from .merge import get_merger, register_merger, sum_f64
from .node import IPFSClient, IPFSNode
from .pubsub import PubSub, Subscription

__all__ = [
    "Block",
    "Blockstore",
    "CID",
    "DEFAULT_CHUNK_SIZE",
    "DHT",
    "IPFSClient",
    "IPFSError",
    "IPFSNode",
    "IntegrityError",
    "MergeError",
    "NodeOfflineError",
    "NotFoundError",
    "PubSub",
    "ReplicationCluster",
    "Subscription",
    "chunk_object",
    "compute_cid",
    "get_merger",
    "parse_manifest",
    "register_merger",
    "sum_f64",
]
