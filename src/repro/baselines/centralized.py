"""Baseline: classic centralized federated learning.

One aggregation server collects every trainer's full update, averages,
and broadcasts the new model.  This is the architecture whose trust and
bottleneck problems motivate the paper (Sec. I); it also serves as the
convergence reference — the decentralized protocol must track it exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..ml import Dataset, Model, compute_gradient, local_update
from ..net import Network, Transport, mbps
from ..obs import TelemetryCollector
from ..obs.events import (
    BytesReceived,
    GradientRegistered,
    GradientsAggregated,
    IterationFinished,
    IterationStarted,
    TrainerCompleted,
    UpdateRegistered,
    UploadCompleted,
)
from ..sim import Simulator
from ..core.config import ProtocolConfig
from ..core.partition import decode_partition, encode_partition, \
    sum_encoded_partitions
from ..obs.telemetry import IterationMetrics, SessionMetrics

__all__ = ["CentralizedSession"]

KIND_UPDATE_UP = "central.update"
KIND_MODEL_DOWN = "central.model"
MESSAGE_OVERHEAD = 128
SERVER = "server"


class CentralizedSession:
    """Server-mediated FedAvg over the emulated network."""

    def __init__(
        self,
        config: ProtocolConfig,
        model_factory: Callable[[], Model],
        datasets: Sequence[Dataset],
        bandwidth_mbps: float = 10.0,
        server_bandwidth_mbps: Optional[float] = None,
        latency: float = 0.0,
        sim: Optional[Simulator] = None,
    ):
        if not datasets:
            raise ValueError("need at least one trainer dataset")
        self.config = config
        self.sim = sim or Simulator()
        self.network = Network(self.sim, default_latency=latency)
        self.trainer_names = [f"trainer-{i}" for i in range(len(datasets))]
        for name in self.trainer_names:
            self.network.add_host(name, up_bandwidth=mbps(bandwidth_mbps))
        server_bandwidth = mbps(server_bandwidth_mbps or bandwidth_mbps)
        self.network.add_host(SERVER, up_bandwidth=server_bandwidth)
        self.transport = Transport(self.network)
        for name in self.trainer_names + [SERVER]:
            self.transport.endpoint(name)
        self._template = model_factory()
        self.models: Dict[str, Model] = {
            name: self._template.clone() for name in self.trainer_names
        }
        self.datasets = dict(zip(self.trainer_names, datasets))
        self.telemetry = TelemetryCollector(self.sim.bus)
        self.metrics: SessionMetrics = self.telemetry.session
        self._iteration = 0

    def _trainer_proc(self, name: str, iteration: int):
        bus = self.sim.bus
        endpoint = self.transport.endpoint(name)
        model = self.models[name]
        if self.config.local_train_seconds > 0:
            yield self.sim.timeout(self.config.local_train_seconds)
        if self.config.update_mode == "params":
            delta = local_update(
                model, self.datasets[name], self.config.train,
                seed=self.config.seed + self.trainer_names.index(name)
                + 7919 * iteration,
            )
            vector = model.get_params() + delta
        else:
            vector = compute_gradient(model, self.datasets[name])
        blob = encode_partition(vector, 1.0)
        upload_started = self.sim.now
        yield endpoint.send(SERVER, KIND_UPDATE_UP,
                            payload={"trainer": name, "blob": blob,
                                     "iteration": iteration},
                            size=len(blob) + MESSAGE_OVERHEAD)
        if bus.wants(UploadCompleted):
            bus.publish(UploadCompleted(
                at=self.sim.now, iteration=iteration, trainer=name,
                delay=self.sim.now - upload_started,
            ))
        message = yield endpoint.receive(kind=KIND_MODEL_DOWN)
        values, counter = decode_partition(message.payload["blob"])
        averaged = values / counter
        if self.config.update_mode == "params":
            model.set_params(averaged)
        else:
            model.set_params(
                model.get_params() - self.config.learning_rate * averaged
            )
        if bus.wants(TrainerCompleted):
            bus.publish(TrainerCompleted(
                at=self.sim.now, iteration=iteration, trainer=name,
            ))

    def _server_proc(self, iteration: int):
        bus = self.sim.bus
        endpoint = self.transport.endpoint(SERVER)
        blobs = []
        while len(blobs) < len(self.trainer_names):
            message = yield endpoint.receive(kind=KIND_UPDATE_UP)
            if message.payload["iteration"] != iteration:
                continue
            if bus.wants(GradientRegistered):
                bus.publish(GradientRegistered(
                    at=self.sim.now, iteration=iteration,
                    uploader=message.payload["trainer"], partition_id=0,
                ))
            blobs.append(message.payload["blob"])
            if bus.wants(BytesReceived):
                bus.publish(BytesReceived(
                    at=self.sim.now, iteration=iteration,
                    participant=SERVER,
                    amount=len(message.payload["blob"]) + MESSAGE_OVERHEAD,
                ))
        if bus.wants(GradientsAggregated):
            bus.publish(GradientsAggregated(
                at=self.sim.now, iteration=iteration, aggregator=SERVER,
            ))
        aggregate = sum_encoded_partitions(blobs)
        sends = [
            endpoint.send(name, KIND_MODEL_DOWN,
                          payload={"blob": aggregate,
                                   "iteration": iteration},
                          size=len(aggregate) + MESSAGE_OVERHEAD)
            for name in self.trainer_names
        ]
        yield self.sim.all_of(sends)
        if bus.wants(UpdateRegistered):
            bus.publish(UpdateRegistered(
                at=self.sim.now, iteration=iteration, aggregator=SERVER,
                partition_id=0,
            ))

    def run_iteration(self) -> Optional[IterationMetrics]:
        """One centralized round; returns its metrics."""
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
                for name in self.trainer_names
            ]
            processes.append(self.sim.process(
                self._server_proc(iteration),
                name=f"server:i{iteration}",
            ))
            yield self.sim.all_of(processes)

        driver_proc = self.sim.process(driver(), name=f"central:{iteration}")
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
        reference = self.models[self.trainer_names[0]].get_params()
        for name in self.trainer_names[1:]:
            if not np.allclose(self.models[name].get_params(), reference,
                               atol=1e-12):
                raise AssertionError(f"{name} diverged")
        return reference
