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

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..ml import Dataset, Model, compute_gradient, local_update
from ..net import Testbed, build_testbed
from ..obs import TelemetryCollector
from ..obs.events import (
    BytesReceived,
    GradientRegistered,
    GradientsAggregated,
    IterationFinished,
    IterationStarted,
    SyncPhaseEnded,
    TrainerCompleted,
    UpdateRegistered,
    UploadCompleted,
)
from ..sim import Simulator
from ..core.bootstrapper import Assignment, build_assignment
from ..core.config import ProtocolConfig
from ..core.partition import (
    ModelPartitioner,
    decode_partition,
    encode_partition,
    sum_encoded_partitions,
)
from ..obs.telemetry import IterationMetrics, SessionMetrics

__all__ = ["DirectIPLSSession"]

KIND_GRADIENT = "ipls.gradient"
KIND_PARTIAL = "ipls.partial"
KIND_UPDATE = "ipls.update"
MESSAGE_OVERHEAD = 128


class DirectIPLSSession:
    """IPLS over direct links, with the same roles and telemetry."""

    def __init__(
        self,
        config: ProtocolConfig,
        model_factory: Callable[[], Model],
        datasets: Sequence[Dataset],
        bandwidth_mbps: float = 10.0,
        latency: float = 0.0,
        sim: Optional[Simulator] = None,
    ):
        if not datasets:
            raise ValueError("need at least one trainer dataset")
        self.config = config
        num_aggregators = (
            config.num_partitions * config.aggregators_per_partition
        )
        # IPFS nodes exist in the testbed but are unused by this baseline.
        self.testbed: Testbed = build_testbed(
            sim=sim,
            num_trainers=len(datasets),
            num_aggregators=num_aggregators,
            num_ipfs_nodes=1,
            bandwidth_mbps=bandwidth_mbps,
            latency=latency,
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
        self.models: Dict[str, Model] = {
            name: self._template.clone()
            for name in self.testbed.trainer_names
        }
        self.datasets = {
            name: datasets[index]
            for index, name in enumerate(self.testbed.trainer_names)
        }
        self.telemetry = TelemetryCollector(self.sim.bus)
        self.metrics: SessionMetrics = self.telemetry.session
        self._iteration = 0

    # -- participant processes -------------------------------------------------------

    def _trainer_proc(self, name: str, iteration: int):
        bus = self.sim.bus
        endpoint = self.testbed.transport.endpoint(name)
        model = self.models[name]
        if self.config.local_train_seconds > 0:
            yield self.sim.timeout(self.config.local_train_seconds)
        if self.config.update_mode == "params":
            delta = local_update(
                model, self.datasets[name], self.config.train,
                seed=self.config.seed
                + self.testbed.trainer_names.index(name)
                + 7919 * iteration,
            )
            vector = model.get_params() + delta
        else:
            vector = compute_gradient(model, self.datasets[name])
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
        updated = self.partitioner.join(
            [received[i] for i in range(self.partitioner.num_partitions)]
        )
        if self.config.update_mode == "params":
            model.set_params(updated)
        else:
            model.set_params(
                model.get_params() - self.config.learning_rate * updated
            )
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

    def run_iteration(self) -> Optional[IterationMetrics]:
        """One direct-IPLS round; returns its metrics."""
        iteration = self._iteration
        self._iteration += 1
        bus = self.sim.bus
        if bus.wants(IterationStarted):
            bus.publish(IterationStarted(at=self.sim.now,
                                         iteration=iteration))

        def driver():
            processes = [
                self.sim.process(
                    self._trainer_proc(name, iteration),
                    name=f"{name}:i{iteration}",
                )
                for name in self.testbed.trainer_names
            ] + [
                self.sim.process(
                    self._aggregator_proc(name, iteration),
                    name=f"{name}:i{iteration}",
                )
                for name in self.testbed.aggregator_names
            ]
            yield self.sim.all_of(processes)

        driver_proc = self.sim.process(driver(), name=f"direct:{iteration}")
        self.sim.run_until(driver_proc)
        if not driver_proc.ok:
            raise driver_proc.value
        if bus.wants(IterationFinished):
            bus.publish(IterationFinished(at=self.sim.now,
                                          iteration=iteration))
        if self.metrics.iterations and \
                self.metrics.iterations[-1].iteration == iteration:
            return self.metrics.iterations[-1]
        return None

    def run(self, rounds: int) -> SessionMetrics:
        for _ in range(rounds):
            self.run_iteration()
        return self.metrics

    def consensus_params(self) -> np.ndarray:
        reference = self.models[self.testbed.trainer_names[0]].get_params()
        for name in self.testbed.trainer_names[1:]:
            if not np.allclose(self.models[name].get_params(), reference,
                               atol=1e-12):
                raise AssertionError(f"{name} diverged")
        return reference
