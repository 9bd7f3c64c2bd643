"""Baseline systems the paper compares against or builds upon.

- :class:`DirectIPLSSession` — the original IPLS with direct p2p links
  (the "direct" series of Fig. 1).
- :class:`CentralizedSession` — classic server-mediated FedAvg: the
  direct IPLS with one partition and one aggregator (the server).
- :class:`BlockchainFLSession` — flexibly-coupled blockchain FL with
  miner-side replication (the storage/communication blow-up of Sec. I).
- :class:`GossipFLSession` — purely decentralized gossip averaging (the
  accuracy/consensus trade-off of Sec. I).
"""

from .blockchain import Block, BlockchainFLSession
from .centralized import CentralizedSession
from .gossip import GossipFLSession
from .ipls_direct import DirectIPLSSession

__all__ = [
    "Block",
    "BlockchainFLSession",
    "CentralizedSession",
    "DirectIPLSSession",
    "GossipFLSession",
]
