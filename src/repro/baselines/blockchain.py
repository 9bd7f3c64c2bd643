"""Baseline: flexibly-coupled blockchain federated learning (BCFL).

The architecture the paper contrasts against (Sec. I): "trainers just
upload their updates to the blockchain, while miners are responsible for
aggregating the trainers' updates and producing the global model … miners
have to store all updates into the blockchain, and those who serve as
aggregators have to download and aggregate every single update", with
gradient broadcast "blowing up communication".

We implement a faithful miniature: a hash-linked chain replicated on
every miner, trainer updates broadcast miner-to-miner, a round-robin
leader aggregating everything into the next block, and full replication
of update payloads — so the storage and traffic blow-up is measurable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..ml import Dataset, Model
from ..net import Network, Transport, mbps
from ..obs.events import (
    BytesReceived,
    GradientRegistered,
    GradientsAggregated,
    TrainerCompleted,
    UpdateRegistered,
    UploadCompleted,
)
from ..sim import Simulator
from ..core.config import ProtocolConfig
from ..core.partition import decode_partition, encode_partition, \
    sum_encoded_partitions
from ..core.session import Session
from ..core.trainer import Trainer

__all__ = ["Block", "Chain", "BlockchainFLSession"]

KIND_SUBMIT = "bcfl.submit"
KIND_GOSSIP = "bcfl.gossip"
KIND_BLOCK = "bcfl.block"
KIND_MODEL = "bcfl.model"
KIND_MODEL_REQUEST = "bcfl.model.request"
MESSAGE_OVERHEAD = 128
BLOCK_HEADER_SIZE = 256


@dataclass(frozen=True)
class Block:
    """One block: header plus the round's update digests and aggregate."""

    index: int
    prev_hash: str
    iteration: int
    update_hashes: tuple
    aggregate_hash: str

    @property
    def hash(self) -> str:
        header = (
            f"{self.index}|{self.prev_hash}|{self.iteration}|"
            + "|".join(self.update_hashes) + f"|{self.aggregate_hash}"
        )
        return hashlib.sha256(header.encode("utf-8")).hexdigest()


GENESIS = Block(index=0, prev_hash="0" * 64, iteration=-1,
                update_hashes=(), aggregate_hash="")


@dataclass
class Chain:
    """A miner's replica of the ledger plus its payload store."""

    blocks: List[Block] = field(default_factory=lambda: [GENESIS])
    #: Full update payloads, as BCFL miners "have to store all updates".
    payloads: Dict[str, bytes] = field(default_factory=dict)

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    @property
    def storage_bytes(self) -> int:
        return (
            sum(len(blob) for blob in self.payloads.values())
            + BLOCK_HEADER_SIZE * len(self.blocks)
        )

    def append(self, block: Block) -> None:
        if block.prev_hash != self.head.hash:
            raise ValueError("block does not extend the chain head")
        if block.index != self.head.index + 1:
            raise ValueError("bad block index")
        self.blocks.append(block)


def blob_hash(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class BlockchainFLSession(Session):
    """BCFL over the emulated network: miners + trainers."""

    def __init__(
        self,
        config: ProtocolConfig,
        model_factory: Callable[[], Model],
        datasets: Sequence[Dataset],
        num_miners: int = 4,
        bandwidth_mbps: float = 10.0,
        latency: float = 0.0,
        sim: Optional[Simulator] = None,
    ):
        if not datasets:
            raise ValueError("need at least one trainer dataset")
        if num_miners < 1:
            raise ValueError("need at least one miner")
        self.config = config
        sim = sim or Simulator()
        self.network = Network(sim, default_latency=latency)
        trainer_names = [f"trainer-{i}" for i in range(len(datasets))]
        self.miner_names = [f"miner-{i}" for i in range(num_miners)]
        for name in trainer_names + self.miner_names:
            self.network.add_host(name, up_bandwidth=mbps(bandwidth_mbps))
        self.transport = Transport(self.network)
        for name in self.miner_names:
            self.transport.endpoint(name)
        template = model_factory()
        self.trainers = [
            Trainer(name, sim, self.transport, config, template.clone(),
                    dataset, seed=config.seed + index)
            for index, (name, dataset)
            in enumerate(zip(trainer_names, datasets))
        ]
        self.chains: Dict[str, Chain] = {
            name: Chain() for name in self.miner_names
        }
        super().__init__(sim)

    def _leader(self, iteration: int) -> str:
        return self.miner_names[iteration % len(self.miner_names)]

    # -- processes ---------------------------------------------------------------

    def _trainer_proc(self, index: int, iteration: int):
        bus = self.sim.bus
        trainer = self.trainers[index]
        name = trainer.name
        endpoint = self.transport.endpoint(name)
        _, vector = yield from trainer._train(iteration)
        blob = encode_partition(vector, 1.0)
        upload_started = self.sim.now
        yield endpoint.send(
            self.miner_names[index % len(self.miner_names)], KIND_SUBMIT,
            payload={"trainer": name, "iteration": iteration, "blob": blob},
            size=len(blob) + MESSAGE_OVERHEAD,
        )
        if bus.wants(UploadCompleted):
            bus.publish(UploadCompleted(
                at=self.sim.now, iteration=iteration, trainer=name,
                delay=self.sim.now - upload_started,
            ))
        message = yield endpoint.receive(kind=KIND_MODEL)
        values, counter = decode_partition(message.payload["blob"])
        trainer._install_update(values / counter)
        if bus.wants(TrainerCompleted):
            bus.publish(TrainerCompleted(
                at=self.sim.now, iteration=iteration, trainer=name,
            ))

    def _miner_proc(self, name: str, iteration: int):
        bus = self.sim.bus
        endpoint = self.transport.endpoint(name)
        chain = self.chains[name]
        is_leader = self._leader(iteration) == name
        expected_updates = len(self.trainers)
        updates: Dict[str, bytes] = {}
        block_received = None

        while len(updates) < expected_updates or (
            not is_leader and block_received is None
        ):
            message = yield endpoint.inbox.get(
                lambda m: m.kind in (KIND_SUBMIT, KIND_GOSSIP, KIND_BLOCK)
            )
            payload = message.payload
            if message.kind == KIND_SUBMIT:
                if payload["iteration"] != iteration:
                    continue
                if bus.wants(GradientRegistered):
                    bus.publish(GradientRegistered(
                        at=self.sim.now, iteration=iteration,
                        uploader=payload["trainer"], partition_id=0,
                    ))
                blob = payload["blob"]
                updates[payload["trainer"]] = blob
                chain.payloads[blob_hash(blob)] = blob
                if bus.wants(BytesReceived):
                    bus.publish(BytesReceived(
                        at=self.sim.now, iteration=iteration,
                        participant=name,
                        amount=len(blob) + MESSAGE_OVERHEAD,
                    ))
                # Gossip the update to every other miner (the broadcast
                # blow-up the paper criticizes).
                for peer in self.miner_names:
                    if peer != name:
                        endpoint.send(
                            peer, KIND_GOSSIP, payload=payload,
                            size=len(blob) + MESSAGE_OVERHEAD,
                        )
            elif message.kind == KIND_GOSSIP:
                if payload["iteration"] != iteration:
                    continue
                blob = payload["blob"]
                updates[payload["trainer"]] = blob
                chain.payloads[blob_hash(blob)] = blob
                if bus.wants(BytesReceived):
                    bus.publish(BytesReceived(
                        at=self.sim.now, iteration=iteration,
                        participant=name,
                        amount=len(blob) + MESSAGE_OVERHEAD,
                    ))
            elif message.kind == KIND_BLOCK:
                block_received = payload["block"]
                aggregate = payload["aggregate"]
                chain.payloads[blob_hash(aggregate)] = aggregate
                chain.append(block_received)
                if bus.wants(BytesReceived):
                    bus.publish(BytesReceived(
                        at=self.sim.now, iteration=iteration,
                        participant=name,
                        amount=len(aggregate) + BLOCK_HEADER_SIZE,
                    ))

        if bus.wants(GradientsAggregated):
            bus.publish(GradientsAggregated(
                at=self.sim.now, iteration=iteration, aggregator=name,
            ))
        if not is_leader:
            return

        # Leader: aggregate everything, forge the block, broadcast it.
        aggregate = sum_encoded_partitions(list(updates.values()))
        block = Block(
            index=chain.head.index + 1,
            prev_hash=chain.head.hash,
            iteration=iteration,
            update_hashes=tuple(sorted(
                blob_hash(blob) for blob in updates.values()
            )),
            aggregate_hash=blob_hash(aggregate),
        )
        chain.payloads[blob_hash(aggregate)] = aggregate
        chain.append(block)
        block_sends = [
            endpoint.send(
                peer, KIND_BLOCK,
                payload={"block": block, "aggregate": aggregate},
                size=len(aggregate) + BLOCK_HEADER_SIZE,
            )
            for peer in self.miner_names if peer != name
        ]
        model_sends = [
            endpoint.send(
                trainer.name, KIND_MODEL,
                payload={"iteration": iteration, "blob": aggregate},
                size=len(aggregate) + MESSAGE_OVERHEAD,
            )
            for trainer in self.trainers
        ]
        yield self.sim.all_of(block_sends + model_sends)
        if bus.wants(UpdateRegistered):
            bus.publish(UpdateRegistered(
                at=self.sim.now, iteration=iteration, aggregator=name,
                partition_id=0,
            ))

    # -- driving rounds ------------------------------------------------------------

    def _round(self, iteration: int, schedule):
        yield self.sim.all_of([
            self.sim.process(self._trainer_proc(index, iteration),
                             name=f"{trainer.name}:i{iteration}")
            for index, trainer in enumerate(self.trainers)
        ] + [
            self.sim.process(self._miner_proc(name, iteration),
                             name=f"{name}:i{iteration}")
            for name in self.miner_names
        ])

    # -- results ---------------------------------------------------------------------

    def total_miner_storage(self) -> int:
        """Bytes stored across all miner replicas (the blow-up)."""
        return sum(chain.storage_bytes for chain in self.chains.values())
