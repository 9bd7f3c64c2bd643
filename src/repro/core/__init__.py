"""The decentralized FL protocol (the paper's contribution).

Public surface:

- :class:`ProtocolConfig` — task parameters.
- :class:`FLSession` — build a deployment and run training rounds.
- :class:`Trainer` / :class:`Aggregator` / :class:`Bootstrapper` /
  :class:`DirectoryService` — the protocol roles; every participant
  reaches the one directory server through a :class:`DirectoryClient`.
- :class:`Address`, :class:`ModelPartitioner`, :class:`IterationSchedule`.
- :class:`DirectoryProfile` — the directory server's processing delay.
- :class:`PartitionCommitter` — verifiable-aggregation crypto glue.
- adversary behaviours: :class:`DropGradientsBehavior`,
  :class:`AlterUpdateBehavior`, :class:`LazyBehavior`.
- telemetry: :class:`IterationMetrics`, :class:`SessionMetrics`.
"""

from .addressing import Address, GRADIENT, PARTIAL_UPDATE, UPDATE
from .adversary import (
    AggregatorBehavior,
    AlterUpdateBehavior,
    DropGradientsBehavior,
    HonestBehavior,
    LazyBehavior,
    ReplayUpdateBehavior,
)
from .aggregator import Aggregator
from .bootstrapper import (
    Assignment,
    Bootstrapper,
    build_assignment,
)
from .config import ProtocolConfig
from .directory import (
    DirectoryClient,
    DirectoryProfile,
    DirectoryService,
)
from .offload import (
    SnapshotPublisher,
    SnapshotReader,
    accumulate_cids,
)
from .partition import (
    ModelPartitioner,
    decode_partition,
    encode_partition,
    sum_encoded_partitions,
)
from .schedule import IterationSchedule
from .session import FLSession
from ..obs.telemetry import IterationMetrics, SessionMetrics
from .trainer import Trainer
from .verification import CommitmentCostModel, PartitionCommitter

__all__ = [
    "Address",
    "Aggregator",
    "AggregatorBehavior",
    "AlterUpdateBehavior",
    "Assignment",
    "Bootstrapper",
    "CommitmentCostModel",
    "DirectoryClient",
    "DirectoryProfile",
    "DirectoryService",
    "DropGradientsBehavior",
    "FLSession",
    "GRADIENT",
    "HonestBehavior",
    "IterationMetrics",
    "IterationSchedule",
    "LazyBehavior",
    "ModelPartitioner",
    "PARTIAL_UPDATE",
    "PartitionCommitter",
    "ProtocolConfig",
    "ReplayUpdateBehavior",
    "SessionMetrics",
    "SnapshotPublisher",
    "SnapshotReader",
    "Trainer",
    "accumulate_cids",
    "UPDATE",
    "build_assignment",
    "decode_partition",
    "encode_partition",
    "sum_encoded_partitions",
]
