"""The decentralized FL protocol (the paper's contribution).

Public surface:

- :class:`ProtocolConfig` — task parameters.
- :class:`FLSession` — build a deployment and run training rounds.
- :class:`Trainer` / :class:`DirectoryService` — protocol roles; every
  participant reaches the one directory server through a
  :class:`DirectoryClient`.  The server is a serve loop around a
  :class:`~repro.core.directory.DirectoryState`, which holds the
  directory's rules and is read as ``session.directory.state``.  The
  other roles, :class:`~repro.core.aggregator.Aggregator` and
  :class:`~repro.core.bootstrapper.Bootstrapper`, live in their modules.
- :class:`Address` / ``GRADIENT``, :class:`Assignment` /
  :func:`build_assignment`, :class:`ModelPartitioner` and the partition
  wire format (:func:`encode_partition`, :func:`decode_partition`,
  :func:`sum_encoded_partitions`).
- :class:`DirectoryProfile` — the directory server's processing delay.
- :class:`PartitionCommitter` — verifiable-aggregation crypto glue.
- adversary behaviours: :class:`DropGradientsBehavior`,
  :class:`AlterUpdateBehavior`, :class:`LazyBehavior`,
  :class:`ReplayUpdateBehavior`.
- Sec. VI snapshots: :class:`SnapshotPublisher`, :class:`SnapshotReader`.

A session's telemetry types are
:class:`~repro.obs.telemetry.IterationMetrics` and
:class:`~repro.obs.telemetry.SessionMetrics`.
"""

from .addressing import Address, GRADIENT
from .adversary import (
    AlterUpdateBehavior,
    DropGradientsBehavior,
    LazyBehavior,
    ReplayUpdateBehavior,
)
from .bootstrapper import Assignment, build_assignment
from .config import ProtocolConfig
from .directory import (
    DirectoryClient,
    DirectoryProfile,
    DirectoryService,
)
from .offload import SnapshotPublisher, SnapshotReader
from .partition import (
    ModelPartitioner,
    decode_partition,
    encode_partition,
    sum_encoded_partitions,
)
from .session import FLSession
from .trainer import Trainer
from .verification import PartitionCommitter

__all__ = [
    "Address",
    "AlterUpdateBehavior",
    "Assignment",
    "DirectoryClient",
    "DirectoryProfile",
    "DirectoryService",
    "DropGradientsBehavior",
    "FLSession",
    "GRADIENT",
    "LazyBehavior",
    "ModelPartitioner",
    "PartitionCommitter",
    "ProtocolConfig",
    "ReplayUpdateBehavior",
    "SnapshotPublisher",
    "SnapshotReader",
    "Trainer",
    "build_assignment",
    "decode_partition",
    "encode_partition",
    "sum_encoded_partitions",
]
