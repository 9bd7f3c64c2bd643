"""Configuration of a decentralized FL task."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ml import TrainConfig


@dataclass
class ProtocolConfig:
    """Everything the bootstrapper fixes when launching a task.

    Field names follow the paper: ``aggregators_per_partition`` is |A_i|,
    ``providers_per_aggregator`` is |P_ij|, ``t_train``/``t_sync`` are the
    per-iteration deadlines of Algorithm 1.
    """

    # -- model segmentation ------------------------------------------------
    #: Number of partitions the parameter vector is segmented into.
    num_partitions: int = 4
    #: |A_i| — aggregators responsible for each partition.
    aggregators_per_partition: int = 1

    # -- iteration schedule (seconds, relative to iteration start) -----------
    #: Deadline for trainers to upload gradients (Algorithm 1's t_train).
    t_train: float = 120.0
    #: Hard end of the iteration (Algorithm 1's t_sync).
    t_sync: float = 600.0
    #: Extra time an aggregator waits for a peer's partial update before
    #: taking over its trainers' gradients (the paper's dropout handling).
    takeover_grace: float = 30.0

    # -- storage / communication ----------------------------------------------
    #: Use the merge-and-download optimization (Sec. III-E).
    merge_and_download: bool = False
    #: |P_ij| — IPFS provider nodes per aggregator; 0 selects the analytic
    #: optimum sqrt(b/d * |T_ij|) (≈ sqrt(|T_ij|) at equal bandwidths).
    providers_per_aggregator: int = 0
    #: Interval between directory polls while waiting for data.
    poll_interval: float = 0.5
    #: Register all of a trainer's gradient partitions in one directory
    #: message with an accumulated CID digest (Sec. VI load reduction).
    batch_registration: bool = False
    #: Chunk size of the underlying IPFS nodes.
    chunk_size: int = 256 * 1024

    # -- verifiable aggregation (Sec. IV) ------------------------------------------
    #: Attach Pedersen commitments and verify every aggregate.
    verifiable: bool = False
    #: Who checks global updates against the accumulated commitment.
    #: The paper: "This can be performed by any participant (trainer or
    #: bootstrapper) but for simplicity we assume it will be performed by
    #: the directory service."  Both can be on simultaneously.
    directory_verification: bool = True
    trainer_verification: bool = False
    #: Curve for the commitments: "secp256k1" or "secp256r1".
    curve: str = "secp256k1"
    #: Fixed-point precision of the gradient encoding.
    fractional_bits: int = 16
    #: If set, participants additionally *sleep* this many seconds per
    #: committed parameter, modelling commitment cost at model scale
    #: without paying it in wall-clock (None = charge nothing; the real
    #: commitment is always computed).
    commit_seconds_per_param: Optional[float] = None

    # -- learning ---------------------------------------------------------------
    #: What trainers upload: "params" (Algorithm 1: locally trained
    #: parameters; the global update is their average, i.e. FedAvg) or
    #: "gradient" (FedSGD: averaged gradient applied client-side).
    update_mode: str = "params"
    #: Client-side SGD step size when ``update_mode == "gradient"``.
    learning_rate: float = 0.1
    #: Local training hyper-parameters.
    train: TrainConfig = field(default_factory=TrainConfig)
    #: Simulated duration of one local training pass (seconds); real
    #: training compute happens outside the simulated clock.
    local_train_seconds: float = 0.0
    #: Partial asynchrony: each trainer starts its round after a
    #: deterministic per-trainer offset drawn uniformly from
    #: [0, trainer_jitter] (participants "may not be online at the same
    #: time", Sec. III-B).
    trainer_jitter: float = 0.0

    #: RNG seed for assignment shuffling and provider choice.
    seed: int = 0

    def __post_init__(self):
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.aggregators_per_partition < 1:
            raise ValueError("aggregators_per_partition must be >= 1")
        if self.t_train <= 0 or self.t_sync <= self.t_train:
            raise ValueError("need 0 < t_train < t_sync")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.takeover_grace < 0:
            raise ValueError("takeover_grace must be non-negative")
        if self.providers_per_aggregator < 0:
            raise ValueError("providers_per_aggregator must be >= 0")
        if self.trainer_jitter < 0:
            raise ValueError("trainer_jitter must be non-negative")
        if self.update_mode not in ("params", "gradient"):
            raise ValueError("update_mode must be 'params' or 'gradient'")
        if self.curve not in ("secp256k1", "secp256r1"):
            raise ValueError("curve must be secp256k1 or secp256r1")
