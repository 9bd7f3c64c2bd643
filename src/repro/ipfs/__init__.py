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
    is_manifest,
    parse_manifest,
)
from .blockstore import Blockstore
from .cid import CID, compute_cid, verify_cid
from .cluster import ReplicationCluster, rendezvous_rank
from .dht import DHT, ProviderRecord
from .errors import (
    IntegrityError,
    IPFSError,
    MergeError,
    NodeOfflineError,
    NotFoundError,
)
from .merge import get_merger, merger_names, register_merger, sum_f64
from .node import IPFSClient, IPFSNode
from .pubsub import PubSub, PubSubMessage, Subscription

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
    "ProviderRecord",
    "PubSub",
    "PubSubMessage",
    "ReplicationCluster",
    "Subscription",
    "chunk_object",
    "compute_cid",
    "get_merger",
    "is_manifest",
    "merger_names",
    "parse_manifest",
    "register_merger",
    "rendezvous_rank",
    "sum_f64",
    "verify_cid",
]
