"""Baseline: the original IPLS with *direct* peer-to-peer communication.

The paper's Fig. 1 compares its indirect-over-IPFS design against the
direct-communication IPLS of [17] (the "8 (direct)" bar): trainers send
gradient partitions straight to the responsible aggregators over p2p
links, aggregators exchange partial updates directly, and updated
partitions flow straight back to every trainer.  No storage network, no
directory — but it *requires* "the establishment of direct communication
links between peers", the assumption the paper relaxes.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from ..ml import Dataset, Model
from ..net import Testbed, build_testbed
from ..obs.events import (
    BytesReceived,
    GradientRegistered,
    GradientsAggregated,
    SyncPhaseEnded,
    TrainerCompleted,
    UpdateRegistered,
    UploadCompleted,
)
from ..core.bootstrapper import Assignment, build_assignment
from ..core.config import ProtocolConfig
from ..core.partition import (
    ModelPartitioner,
    decode_partition,
    encode_partition,
    sum_encoded_partitions,
)
from ..core.session import Session
from ..core.trainer import Trainer

KIND_GRADIENT = "ipls.gradient"
KIND_PARTIAL = "ipls.partial"
KIND_UPDATE = "ipls.update"
MESSAGE_OVERHEAD = 128


class DirectIPLSSession(Session):
    """IPLS over direct links, with the same roles and telemetry."""

    def __init__(
        self,
        config: ProtocolConfig,
        model_factory: Callable[[], Model],
        datasets: Sequence[Dataset],
        bandwidth_mbps: float = 10.0,
    ):
        if not datasets:
            raise ValueError("need at least one trainer dataset")
        self.config = config
        num_aggregators = (
            config.num_partitions * config.aggregators_per_partition
        )
        # IPFS nodes exist in the testbed but are unused by this baseline.
        self.testbed: Testbed = build_testbed(
            num_trainers=len(datasets),
            num_aggregators=num_aggregators,
            num_ipfs_nodes=1,
            bandwidth_mbps=bandwidth_mbps,
        )
        self.sim = self.testbed.sim
        self._template = model_factory()
        self.partitioner = ModelPartitioner(
            self._template.num_params(), config.num_partitions
        )
        self.assignment: Assignment = build_assignment(
            config,
            trainer_names=self.testbed.trainer_names,
            aggregator_names=self.testbed.aggregator_names,
            ipfs_names=self.testbed.ipfs_names,
        )
        self.trainers = [
            Trainer(name, self.sim, self.testbed.transport, config,
                    self._template.clone(), dataset, seed=config.seed + index)
            for index, (name, dataset)
            in enumerate(zip(self.testbed.trainer_names, datasets))
        ]
        super().__init__(self.sim)

    # -- participant processes -------------------------------------------------------

    def _trainer_proc(self, trainer: Trainer, iteration: int):
        bus = self.sim.bus
        name = trainer.name
        endpoint = self.testbed.transport.endpoint(name)
        _, vector = yield from trainer._train(iteration)
        parts = self.partitioner.split(vector)
        send_started = self.sim.now
        sends = []
        for partition_id, values in enumerate(parts):
            blob = encode_partition(values, 1.0)
            aggregator = self.assignment.aggregator_of[(name, partition_id)]
            sends.append(endpoint.send(
                aggregator, KIND_GRADIENT,
                payload={"trainer": name, "partition": partition_id,
                         "iteration": iteration, "blob": blob},
                size=len(blob) + MESSAGE_OVERHEAD,
            ))
        yield self.sim.all_of(sends)
        if bus.wants(UploadCompleted):
            bus.publish(UploadCompleted(
                at=self.sim.now, iteration=iteration, trainer=name,
                delay=(self.sim.now - send_started) / max(1, len(parts)),
            ))

        # Receive one updated partition per partition id.
        received: Dict[int, np.ndarray] = {}
        while len(received) < self.partitioner.num_partitions:
            message = yield endpoint.receive(kind=KIND_UPDATE)
            payload = message.payload
            if payload["iteration"] != iteration:
                continue
            values, counter = decode_partition(payload["blob"])
            received[payload["partition"]] = values / counter
        trainer._install_update(self.partitioner.join(
            [received[i] for i in range(self.partitioner.num_partitions)]
        ))
        if bus.wants(TrainerCompleted):
            bus.publish(TrainerCompleted(
                at=self.sim.now, iteration=iteration, trainer=name,
            ))

    def _aggregator_proc(self, name: str, iteration: int):
        bus = self.sim.bus
        endpoint = self.testbed.transport.endpoint(name)
        partition_id = self.assignment.partition_of[name]
        my_trainers = set(
            self.assignment.trainers_of[(partition_id, name)]
        )
        peers = self.assignment.peers_of(name)
        blobs: Dict[str, bytes] = {}
        while len(blobs) < len(my_trainers):
            message = yield endpoint.receive(kind=KIND_GRADIENT)
            payload = message.payload
            if payload["iteration"] != iteration:
                continue
            if bus.wants(GradientRegistered):
                bus.publish(GradientRegistered(
                    at=self.sim.now, iteration=iteration,
                    uploader=payload["trainer"],
                    partition_id=partition_id,
                ))
            blobs[payload["trainer"]] = payload["blob"]
            if bus.wants(BytesReceived):
                bus.publish(BytesReceived(
                    at=self.sim.now, iteration=iteration, participant=name,
                    amount=len(payload["blob"]) + MESSAGE_OVERHEAD,
                ))
        if bus.wants(GradientsAggregated):
            bus.publish(GradientsAggregated(
                at=self.sim.now, iteration=iteration, aggregator=name,
            ))
        partial = sum_encoded_partitions(list(blobs.values()))

        contributions = {name: partial}
        if peers:
            sync_start = self.sim.now
            for peer in peers:
                endpoint.send(
                    peer, KIND_PARTIAL,
                    payload={"aggregator": name, "partition": partition_id,
                             "iteration": iteration, "blob": partial},
                    size=len(partial) + MESSAGE_OVERHEAD,
                )
            pending = set(peers)
            while pending:
                message = yield endpoint.receive(kind=KIND_PARTIAL)
                payload = message.payload
                if payload["iteration"] != iteration:
                    continue
                contributions[payload["aggregator"]] = payload["blob"]
                pending.discard(payload["aggregator"])
                if bus.wants(BytesReceived):
                    bus.publish(BytesReceived(
                        at=self.sim.now, iteration=iteration,
                        participant=name,
                        amount=len(payload["blob"]) + MESSAGE_OVERHEAD,
                    ))
            if bus.wants(SyncPhaseEnded):
                bus.publish(SyncPhaseEnded(
                    at=self.sim.now, iteration=iteration, aggregator=name,
                    duration=self.sim.now - sync_start,
                ))

        global_blob = sum_encoded_partitions(list(contributions.values()))
        # The first aggregator of the partition broadcasts to all trainers.
        if self.assignment.aggregators_for[partition_id][0] == name:
            sends = [
                endpoint.send(
                    trainer, KIND_UPDATE,
                    payload={"partition": partition_id,
                             "iteration": iteration, "blob": global_blob},
                    size=len(global_blob) + MESSAGE_OVERHEAD,
                )
                for trainer in self.testbed.trainer_names
            ]
            yield self.sim.all_of(sends)
            if bus.wants(UpdateRegistered):
                bus.publish(UpdateRegistered(
                    at=self.sim.now, iteration=iteration, aggregator=name,
                    partition_id=partition_id,
                ))

    # -- driving rounds -----------------------------------------------------------------

    def _round(self, iteration: int, schedule):
        yield self.sim.all_of([
            self.sim.process(self._trainer_proc(trainer, iteration),
                             name=f"{trainer.name}:i{iteration}")
            for trainer in self.trainers
        ] + [
            self.sim.process(self._aggregator_proc(name, iteration),
                             name=f"{name}:i{iteration}")
            for name in self.testbed.aggregator_names
        ])
