"""Topology builders matching the paper's experimental setups.

The paper's mininet experiments use uniform per-host bandwidth (all
participants at 10 Mbps for Fig. 1, 20 Mbps for Fig. 2).  These helpers
build such networks in one call and name hosts by role, mirroring the
trainer/aggregator/IPFS-node/directory split of the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..sim import Simulator
from .network import Network
from .transport import Transport
from .units import mbps


@dataclass
class Testbed:
    """A ready-to-use emulated deployment for one FL task."""

    sim: Simulator
    network: Network
    transport: Transport
    trainer_names: List[str] = field(default_factory=list)
    aggregator_names: List[str] = field(default_factory=list)
    ipfs_names: List[str] = field(default_factory=list)
    directory_name: str = "directory"


def build_testbed(
    num_trainers: int = 16,
    num_aggregators: int = 1,
    num_ipfs_nodes: int = 8,
    bandwidth_mbps: float = 10.0,
    aggregator_bandwidth_mbps: Optional[float] = None,
    trainer_bandwidths_mbps: Optional[Sequence[float]] = None,
    latency: float = 0.0,
) -> Testbed:
    """Build the paper-style deployment.

    All trainers and IPFS nodes get the same symmetric ``bandwidth_mbps``
    link; aggregators too, unless ``aggregator_bandwidth_mbps`` overrides
    them (the asymmetric case of the Sec. III-E analysis, where the
    optimum provider count scales with sqrt(b/d)).  The directory
    service, run by the well-connected bootstrapper, gets an
    unconstrained link, as directory traffic is metadata-only.
    """
    if num_trainers < 1 or num_aggregators < 1 or num_ipfs_nodes < 1:
        raise ValueError("need at least one of each participant kind")
    sim = Simulator()
    bandwidth = mbps(bandwidth_mbps)
    aggregator_bandwidth = (
        bandwidth if aggregator_bandwidth_mbps is None
        else mbps(aggregator_bandwidth_mbps)
    )
    network = Network(sim, default_latency=latency)

    trainer_names = [f"trainer-{i}" for i in range(num_trainers)]
    aggregator_names = [f"aggregator-{i}" for i in range(num_aggregators)]
    ipfs_names = [f"ipfs-{i}" for i in range(num_ipfs_nodes)]

    if trainer_bandwidths_mbps is not None \
            and len(trainer_bandwidths_mbps) != num_trainers:
        raise ValueError(
            "trainer_bandwidths_mbps must list one value per trainer"
        )
    for index, name in enumerate(trainer_names):
        trainer_bandwidth = (
            bandwidth if trainer_bandwidths_mbps is None
            else mbps(trainer_bandwidths_mbps[index])
        )
        network.add_host(name, up_bandwidth=trainer_bandwidth,
                         down_bandwidth=trainer_bandwidth)
    for name in ipfs_names:
        network.add_host(name, up_bandwidth=bandwidth,
                         down_bandwidth=bandwidth)
    for name in aggregator_names:
        network.add_host(name, up_bandwidth=aggregator_bandwidth,
                         down_bandwidth=aggregator_bandwidth)

    network.add_host("directory", up_bandwidth=math.inf,
                     down_bandwidth=math.inf)

    transport = Transport(network)
    for name in trainer_names + aggregator_names + ipfs_names + ["directory"]:
        transport.endpoint(name)

    return Testbed(
        sim=sim,
        network=network,
        transport=transport,
        trainer_names=trainer_names,
        aggregator_names=aggregator_names,
        ipfs_names=ipfs_names,
        directory_name="directory",
    )
