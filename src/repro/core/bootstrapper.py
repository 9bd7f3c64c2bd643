"""The bootstrapper: task owner, assignment builder, schedule announcer.

"A bootstrapper is the initiator of a federated learning task … assumed to
have good network connectivity" (Sec. II).  In this protocol it addition-
ally runs the directory service; here it also computes the static
*assignment*: which aggregators own which partition (the sets ``A_i``),
which trainers report to which aggregator (the sets ``T_ij``), and which
IPFS provider nodes serve each aggregator (the sets ``P_ij``,
Sec. III-E).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Sequence, Tuple

from ..net import Transport
from ..sim import Simulator
from .config import ProtocolConfig
from .schedule import IterationSchedule

SCHEDULE_WIRE_SIZE = 96


def optimal_provider_count(num_trainers: int) -> int:
    """The paper's analytic optimum |P_ij| = sqrt(b·|T_ij|/d) at equal
    aggregator and node bandwidths (b = d): sqrt(|T_ij|) — e.g. 4
    providers for the 16-trainer Fig. 1 experiment.
    """
    if num_trainers < 1:
        raise ValueError("num_trainers must be >= 1")
    return max(1, round(math.sqrt(num_trainers)))


@dataclass
class Assignment:
    """The static role/topology assignment of one FL task."""

    #: partition -> ordered aggregator names (the set A_i).
    aggregators_for: Dict[int, List[str]] = field(default_factory=dict)
    #: aggregator -> its partition.
    partition_of: Dict[str, int] = field(default_factory=dict)
    #: (partition, aggregator) -> trainer names (the set T_ij).
    trainers_of: Dict[Tuple[int, str], List[str]] = field(default_factory=dict)
    #: (trainer, partition) -> its aggregator (A_t[i] in Algorithm 1).
    aggregator_of: Dict[Tuple[str, int], str] = field(default_factory=dict)
    #: aggregator -> its IPFS provider nodes (the set P_ij).
    providers_of: Dict[str, List[str]] = field(default_factory=dict)
    #: aggregator -> the node it uploads partial/global updates to
    #: (spread round-robin over all nodes to avoid hot spots).
    update_node_of: Dict[str, str] = field(default_factory=dict)
    #: (trainer, partition) -> the IPFS node it must upload to.
    upload_node: Dict[Tuple[str, int], str] = field(default_factory=dict)
    #: All storage nodes in the deployment (fallback upload targets).
    storage_nodes: List[str] = field(default_factory=list)

    @property
    def num_partitions(self) -> int:
        return len(self.aggregators_for)

    def peers_of(self, aggregator: str) -> List[str]:
        """The other aggregators responsible for the same partition."""
        partition = self.partition_of[aggregator]
        return [name for name in self.aggregators_for[partition]
                if name != aggregator]


def build_assignment(
    config: ProtocolConfig,
    trainer_names: Sequence[str],
    aggregator_names: Sequence[str],
    ipfs_names: Sequence[str],
) -> Assignment:
    """Construct the task assignment.

    Aggregators are dealt round-robin over partitions (each aggregator is
    responsible for exactly one partition, matching the paper's experi-
    ments); each partition's trainer set is split evenly across its |A_i|
    aggregators; provider sets are assigned contiguously over the IPFS
    node list, wrapping as needed.
    """
    required = config.num_partitions * config.aggregators_per_partition
    if len(aggregator_names) != required:
        raise ValueError(
            f"need exactly {required} aggregators "
            f"({config.num_partitions} partitions x "
            f"{config.aggregators_per_partition}), got {len(aggregator_names)}"
        )
    if not trainer_names:
        raise ValueError("need at least one trainer")
    if not ipfs_names:
        raise ValueError("need at least one IPFS node")

    rng = random.Random(config.seed)
    assignment = Assignment()
    assignment.storage_nodes = list(ipfs_names)

    # A_i: deal aggregators over partitions.
    for index, name in enumerate(aggregator_names):
        partition = index % config.num_partitions
        assignment.aggregators_for.setdefault(partition, []).append(name)
        assignment.partition_of[name] = partition

    # T_ij: for every partition, split all trainers across its aggregators.
    for partition in range(config.num_partitions):
        owners = assignment.aggregators_for[partition]
        shuffled = list(trainer_names)
        rng.shuffle(shuffled)
        for position, trainer in enumerate(shuffled):
            owner = owners[position % len(owners)]
            assignment.trainers_of.setdefault(
                (partition, owner), []
            ).append(trainer)
            assignment.aggregator_of[(trainer, partition)] = owner
        for owner in owners:
            assignment.trainers_of.setdefault((partition, owner), [])

    # P_ij: provider nodes per aggregator.
    node_cursor = 0
    for index, name in enumerate(aggregator_names):
        assignment.update_node_of[name] = ipfs_names[index % len(ipfs_names)]
    for name in aggregator_names:
        partition = assignment.partition_of[name]
        trainer_count = len(assignment.trainers_of[(partition, name)])
        count = config.providers_per_aggregator or optimal_provider_count(
            max(1, trainer_count)
        )
        count = min(count, len(ipfs_names))
        providers = [
            ipfs_names[(node_cursor + offset) % len(ipfs_names)]
            for offset in range(count)
        ]
        node_cursor += count
        assignment.providers_of[name] = providers

    # Upload targets: with merge-and-download, a trainer "is required to
    # upload its gradients to a node from P_ij"; otherwise it uses a fixed
    # nearby node.
    for partition in range(config.num_partitions):
        for owner in assignment.aggregators_for[partition]:
            for position, trainer in enumerate(
                assignment.trainers_of[(partition, owner)]
            ):
                if config.merge_and_download:
                    providers = assignment.providers_of[owner]
                    node = providers[position % len(providers)]
                else:
                    trainer_index = list(trainer_names).index(trainer)
                    node = ipfs_names[trainer_index % len(ipfs_names)]
                assignment.upload_node[(trainer, partition)] = node

    return assignment


class Bootstrapper:
    """Announces per-iteration schedules to all participants."""

    def __init__(self, sim: Simulator, transport: Transport,
                 name: str = "directory"):
        # The bootstrapper shares the directory's well-connected host.
        self.sim = sim
        self.name = name
        self.network = transport.network

    def announce(self, schedule: IterationSchedule,
                 participants: Sequence[str]):
        """Send the schedule to every participant; returns an event that
        fires once every copy arrived or aborted, valued with the
        participants it did not reach (a link that went down while the
        announcement was in flight).

        Only its wire size travels: the session hands ``schedule`` itself
        to the roles it starts, so a message in each inbox would be one
        nobody ever receives.
        """
        announced = self.sim.event()
        unreached: List[str] = []
        pending = [len(participants)]

        def settle(participant, event):
            if not event.ok:
                event.defused()
                unreached.append(participant)
            pending[0] -= 1
            if not pending[0]:
                announced.succeed(unreached)

        for participant in participants:
            transfer = self.network.transfer(
                self.name, participant, SCHEDULE_WIRE_SIZE)
            transfer._add_callback(partial(settle, participant))
        if not participants:
            announced.succeed(unreached)
        return announced
