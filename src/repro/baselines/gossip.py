"""Baseline: purely decentralized gossip federated learning.

The paper's first category of decentralized FL ("peers communicate
directly with others and perform the learning process via gossiping",
refs [5, 6, 7]) and the reason it is rejected: "it may not always achieve
the same performance in model accuracy and convergence as centralized
FL, and this highly depends on the nature of the dataset".

Implementation: push-pull gossip averaging.  Each round every trainer
trains locally, then exchanges models with ``fanout`` random neighbours
and averages what it holds.  There is no global model — per-trainer
models drift apart, especially on non-IID data, which the convergence
benchmark quantifies against our protocol's exact FedAvg.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, List, Sequence

import numpy as np

from ..ml import Dataset, Model
from ..net import Network, Transport, mbps
from ..obs.events import BytesReceived, TrainerCompleted
from ..sim import Simulator
from ..core.config import ProtocolConfig
from ..core.partition import decode_partition, encode_partition
from ..core.session import Session
from ..core.trainer import Trainer

__all__ = ["GossipFLSession"]

KIND_MODEL_PUSH = "gossip.push"
MESSAGE_OVERHEAD = 128
#: Every peer's uplink (Mbps), the paper's testbed bandwidth.
BANDWIDTH_MBPS = 10.0


class GossipFLSession(Session):
    """Gossip-averaging FL over direct links (no aggregators at all)."""

    def __init__(
        self,
        config: ProtocolConfig,
        model_factory: Callable[[], Model],
        datasets: Sequence[Dataset],
        fanout: int = 2,
        seed: int = 0,
    ):
        if not datasets:
            raise ValueError("need at least one trainer dataset")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.config = config
        self.fanout = min(fanout, max(1, len(datasets) - 1))
        sim = Simulator()
        self._rng = random.Random(seed)
        self.network = Network(sim)
        self.trainer_names = [f"trainer-{i}" for i in range(len(datasets))]
        for name in self.trainer_names:
            self.network.add_host(name, up_bandwidth=mbps(BANDWIDTH_MBPS))
        self.transport = Transport(self.network)
        template = model_factory()
        # No global model to apply a gradient to: every trainer trains
        # locally and pushes its parameters, whatever the update mode.
        local = replace(config, update_mode="params")
        self.trainers = [
            Trainer(name, sim, self.transport, local, template.clone(),
                    dataset, seed=config.seed + index)
            for index, (name, dataset)
            in enumerate(zip(self.trainer_names, datasets))
        ]
        super().__init__(sim)

    def _neighbours(self, name: str) -> List[str]:
        others = [peer for peer in self.trainer_names if peer != name]
        self._rng.shuffle(others)
        return others[: self.fanout]

    def _trainer_proc(self, trainer: Trainer, iteration: int,
                      targets: List[str], pushes_expected: int):
        bus = self.sim.bus
        name = trainer.name
        endpoint = self.transport.endpoint(name)
        _, own_params = yield from trainer._train(iteration)
        blob = encode_partition(own_params, 1.0)

        for peer in targets:
            endpoint.send(
                peer, KIND_MODEL_PUSH,
                payload={"iteration": iteration, "blob": blob},
                size=len(blob) + MESSAGE_OVERHEAD,
            )

        received = [own_params]
        for _ in range(pushes_expected):
            message = yield endpoint.receive(kind=KIND_MODEL_PUSH)
            if message.payload["iteration"] != iteration:
                continue
            values, counter = decode_partition(message.payload["blob"])
            received.append(values / counter)
            if bus.wants(BytesReceived):
                bus.publish(BytesReceived(
                    at=self.sim.now, iteration=iteration, participant=name,
                    amount=len(message.payload["blob"]) + MESSAGE_OVERHEAD,
                ))
        trainer.model.set_params(np.mean(received, axis=0))
        if bus.wants(TrainerCompleted):
            bus.publish(TrainerCompleted(
                at=self.sim.now, iteration=iteration, trainer=name,
            ))

    def _round(self, iteration: int, schedule):
        # Fix this round's gossip graph up front so receivers know how
        # many pushes to await (avoids modelling timeouts).
        self._rng.seed(self.config.seed + iteration)
        targets = {
            name: self._neighbours(name) for name in self.trainer_names
        }
        pushes_expected = {name: 0 for name in self.trainer_names}
        for peers in targets.values():
            for peer in peers:
                pushes_expected[peer] += 1
        yield self.sim.all_of([
            self.sim.process(
                self._trainer_proc(trainer, iteration, targets[trainer.name],
                                   pushes_expected[trainer.name]),
                name=f"{trainer.name}:i{iteration}",
            )
            for trainer in self.trainers
        ])

    # -- results --------------------------------------------------------------------

    def model_divergence(self) -> float:
        """Max pairwise L2 distance between trainers' models — zero for
        consensus protocols, strictly positive under gossip."""
        params = [trainer.model.get_params() for trainer in self.trainers]
        worst = 0.0
        for i in range(len(params)):
            for j in range(i + 1, len(params)):
                worst = max(worst, float(
                    np.linalg.norm(params[i] - params[j])
                ))
        return worst
