"""Baseline: classic centralized federated learning.

One aggregation server collects every trainer's full update, averages,
and broadcasts the new model.  This is the architecture whose trust and
bottleneck problems motivate the paper (Sec. I); it also serves as the
convergence reference — the decentralized protocol must track it exactly.
Centralized FedAvg is the one-partition direct IPLS: the server is its
one aggregator, host ``"aggregator-0"``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from ..core.config import ProtocolConfig
from ..ml import Dataset, Model
from .ipls_direct import DirectIPLSSession


class CentralizedSession(DirectIPLSSession):
    """Server-mediated FedAvg over the emulated network."""

    def __init__(
        self,
        config: ProtocolConfig,
        model_factory: Callable[[], Model],
        datasets: Sequence[Dataset],
        bandwidth_mbps: float = 10.0,
    ):
        super().__init__(
            replace(config, num_partitions=1, aggregators_per_partition=1),
            model_factory, datasets, bandwidth_mbps,
        )
