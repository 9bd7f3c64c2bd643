"""The trainer role (Algorithm 1, ``TRAINER``).

Per iteration a trainer:

1. trains the model on its local shard, producing an update vector,
2. splits it into partitions, appends the averaging counter 1, commits
   (verifiable mode) and uploads each partition to its designated IPFS
   node, registering the CID (plus commitment) with the directory,
3. polls the directory for the global update of every partition,
   downloads each, divides by the summed counter, and installs the new
   model — adopting, when it can, the one read-only vector another
   trainer of the session computed from the same updates and base.

If the training deadline ``t_train`` passes before its uploads finish,
the trainer aborts the iteration (Algorithm 1 line 10).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..faults.retry import RetryPolicy
from ..ipfs import DHT, IPFSClient, IPFSError
from ..ml import Dataset, Model, accuracy, compute_gradient, local_update, \
    mean_loss
from ..net import Transport
from ..obs.events import (
    CommitmentComputed,
    TrainerCompleted,
    TrainingEvaluated,
    UploadCompleted,
    VerificationFailed,
)
from ..sim import Simulator
from .addressing import Address, GRADIENT, UPDATE
from .bootstrapper import Assignment
from .config import ProtocolConfig
from .directory import DirectoryClient
from .partition import ModelPartitioner, _partition_view, encode_partition
from .schedule import IterationSchedule, Participant
from .verification import CommitmentCostModel, PartitionCommitter


class Trainer(Participant):
    """One trainer participant.

    Direct IPLS and centralized FL (:mod:`repro.baselines`) build
    trainers too, for the local learning step only (:meth:`_train`,
    :meth:`_install_update`): they carry the vectors over direct links,
    so they pass no DHT, assignment or partitioner.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        transport: Transport,
        config: ProtocolConfig,
        model: Model,
        dataset: Dataset,
        seed: int = 0,
        dht: Optional[DHT] = None,
        assignment: Optional[Assignment] = None,
        partitioner: Optional[ModelPartitioner] = None,
        committers: Optional[Dict[int, PartitionCommitter]] = None,
        retry: Optional[RetryPolicy] = None,
        directory_request_timeout: Optional[float] = None,
        installs: Optional[Dict[tuple, list]] = None,
    ):
        super().__init__(name, sim)
        self.config = config
        self.assignment = assignment
        self.partitioner = partitioner
        self.model = model
        self.dataset = dataset
        self.committers = committers or {}
        self.seed = seed
        self.ipfs = IPFSClient(name, transport, dht,
                               chunk_size=config.chunk_size,
                               retry=retry)
        self.directory = DirectoryClient(
            name, transport, retry=retry,
            request_timeout=directory_request_timeout,
        )
        self.cost_model = CommitmentCostModel(config.commit_seconds_per_param)
        #: Per-trainer local compute time; defaults to the config value,
        #: override to model stragglers.
        self.local_train_seconds = config.local_train_seconds
        #: Iterations this trainer finished with an installed update.
        self.completed_iterations = 0
        #: Updates this trainer itself rejected (trainer verification).
        self.rejected_updates = 0
        #: The session's install table, shared by its trainers: update
        #: CIDs -> [(the frozen base a vector was computed from, None in
        #: params mode; that read-only vector)].  None: every install
        #: computes its own.
        self.installs = installs

    # -- local learning -----------------------------------------------------------

    def _train(self, iteration: int):
        """Wait out this round's deterministic arrival offset
        (``trainer_jitter``) and the local compute time, then take the
        learning step: returns :meth:`_compute_update_vector`'s
        ``(loss, vector)``."""
        if self.config.trainer_jitter > 0:
            rng = np.random.default_rng(self.seed + 104729 * iteration)
            yield self.sim.timeout(
                float(rng.uniform(0.0, self.config.trainer_jitter))
            )
        if self.local_train_seconds > 0:
            yield self.sim.timeout(self.local_train_seconds)
        return self._compute_update_vector(iteration)

    def _compute_update_vector(self, iteration: int):
        """``(loss, vector)``: the flat vector to upload, per the configured
        update mode, and this model's loss where the pass that built the
        vector computed it (None: "params" trains a clone)."""
        if self.config.update_mode == "params":
            delta = local_update(
                self.model, self.dataset, self.config.train,
                seed=self.seed + 7919 * iteration,
            )
            return None, self.model.get_params() + delta
        return compute_gradient(self.model, self.dataset, with_loss=True)

    def _install_update(self, averaged: np.ndarray) -> None:
        """Install the averaged update; ``averaged`` is this call's to
        overwrite and to hand over (the model may keep it, frozen)."""
        if self.config.update_mode != "params":
            averaged *= self.config.learning_rate
            np.subtract(self.model.get_params(), averaged, out=averaged)
        averaged.flags.writeable = False
        self.model.set_params(averaged)

    # -- the per-iteration process ------------------------------------------------------

    def run_iteration(self, schedule: IterationSchedule):
        """Process generator executing one round for this trainer.

        Reports outcomes (commitment cost, upload delay, completion,
        rejected updates) as :mod:`repro.obs` events on ``sim.bus``.
        """
        bus = self.sim.bus
        self._begin_round()
        loss, vector = yield from self._train(schedule.iteration)
        if self.sim.now > schedule.t_train:
            return  # Abort: did not train in time (Algorithm 1 line 10).
        if bus.wants(TrainingEvaluated):
            # Evaluation telemetry: pure evaluation on the local shard
            # (no RNG, no sim interaction), paid only when observed, reusing
            # the loss the gradient pass found.
            if loss is None:
                loss = mean_loss(self.model, self.dataset)
            bus.publish(TrainingEvaluated(
                at=self.sim.now, iteration=schedule.iteration,
                trainer=self.name, loss=loss,
                accuracy=(accuracy(self.model, self.dataset)
                          if hasattr(self.model, "num_classes") else None),
                samples=len(self.dataset.y),
            ))

        parts = self.partitioner.split(vector)
        del vector  # lives on through the views, until they are encoded

        # Commit sequentially (CPU-bound work on one core), then upload all
        # partitions concurrently and register each CID as its put
        # completes.
        prepared = []
        for partition_id, values in enumerate(parts):
            committer = self.committers.get(partition_id)
            if self.config.verifiable and committer is not None:
                blob, commitment = committer.encode_and_commit(values)
                delay = self.cost_model.commit_delay(len(values) + 1)
                if bus.wants(CommitmentComputed):
                    bus.publish(CommitmentComputed(
                        at=self.sim.now, iteration=schedule.iteration,
                        participant=self.name, seconds=delay,
                    ))
                if delay > 0:
                    yield self.sim.timeout(delay)
            else:
                blob, commitment = encode_partition(values, 1.0), None
            prepared.append((partition_id, blob, commitment))
        del parts, values, blob  # encoded: only the blobs travel on

        upload_delays = []
        failures = []
        batched_records = []

        def upload_one(partition_id, blob, commitment):
            # With merge-and-download, the upload target is fixed ("a
            # trainer ... is required to upload its gradients to a node
            # from P_ij"); otherwise any live node will do, so fall back
            # on a timeout.
            assigned = self.assignment.upload_node[(self.name, partition_id)]
            candidates = [assigned]
            if not self.config.merge_and_download:
                candidates += [node for node
                               in self.assignment.storage_nodes
                               if node != assigned]
            put_started = self.sim.now
            cid = None
            for node in candidates:
                try:
                    cid = yield from self.ipfs.put(blob, node=node)
                    break
                except IPFSError:
                    continue
            if cid is None:
                failures.append(partition_id)
                return
            upload_delays.append(self.sim.now - put_started)
            address = Address(
                uploader_id=self.name, partition_id=partition_id,
                iteration=schedule.iteration, kind=GRADIENT,
            )
            if self.config.batch_registration:
                batched_records.append({
                    "address": address, "cid": cid,
                    "commitment": commitment,
                })
            else:
                ack = yield from self.directory.register(
                    address, cid, commitment
                )
                if not ack.get("accepted"):
                    failures.append(partition_id)  # cutoff: round missed

        uploads_started = self.sim.now
        uploads = [
            self._spawn(
                upload_one(partition_id, blob, commitment),
                name=f"{self.name}:up:p{partition_id}",
            )
            for partition_id, blob, commitment in prepared
        ]
        del prepared  # each upload holds its blob, until the node does
        yield from self._join(uploads)
        if failures:
            return  # a storage node died; abort this round
        if batched_records:
            # One directory round-trip for all partitions (Sec. VI).
            ack = yield from self.directory.register_batch(batched_records)
            if not ack.get("accepted"):
                return  # cutoff or bad accumulation: round missed
        if self.sim.now > schedule.t_train:
            return  # missed the upload deadline
        if upload_delays and bus.wants(UploadCompleted):
            bus.publish(UploadCompleted(
                at=self.sim.now, iteration=schedule.iteration,
                trainer=self.name,
                delay=sum(upload_delays) / len(upload_delays),
                started_at=uploads_started,
            ))

        # -- retrieve the updated partitions ------------------------------------
        cids, updates = [], []  # the fetched blobs' read-only views
        for partition_id in range(self.partitioner.num_partitions):
            cid = None
            while self.sim.now < schedule.t_sync:
                results = yield from self.directory.lookup(
                    partition_id, schedule.iteration, UPDATE
                )
                if results:
                    cid = results[0]["cid"]
                    break
                remaining = schedule.remaining_sync(self.sim.now)
                if remaining <= 0:
                    break
                yield self.sim.timeout(
                    min(self.config.poll_interval, remaining)
                )
            if cid is None:
                return  # iteration failed for this trainer
            try:
                blob = yield from self.ipfs.get(cid)
            except IPFSError:
                return
            verified = True
            committer = self.committers.get(partition_id)
            if self.config.verifiable and self.config.trainer_verification \
                    and committer is not None:
                # Delegated verification (Sec. IV: "can be performed by
                # any participant").
                verified = yield from self._opens_accumulated(
                    committer, partition_id, schedule.iteration, None, blob)
            if not verified:
                self.rejected_updates += 1
                if bus.wants(VerificationFailed):
                    bus.publish(VerificationFailed(
                        at=self.sim.now, iteration=schedule.iteration,
                        label=(f"trainer-rejected/p{partition_id}"
                               f"/i{schedule.iteration}/{self.name}"),
                        scope="trainer",
                        partition_id=partition_id,
                        reason="downloaded update does not open the "
                               "accumulated commitment",
                    ))
                return
            update = _partition_view(blob)
            start, end = self.partitioner.bounds(partition_id)
            if update.shape[0] - 1 != end - start:
                raise ValueError(f"partition {partition_id} has wrong "
                                 f"length {update.shape[0] - 1}")
            if update[-1] <= 0:
                return
            cids.append(cid)
            updates.append((start, end, update))

        # Install by content: a trainer installing the same updates onto
        # the same frozen base array adopts the vector another already
        # computed.  In params mode the updates alone decide; a model
        # holding a private copy computes alone.
        params_mode = self.config.update_mode == "params"
        base = None if params_mode else self.model.adopted()
        shared, vector = None, None
        if self.installs is not None and (params_mode or base is not None):
            shared = self.installs.setdefault(tuple(cids), [])
            vector = next((v for seen, v in shared if seen is base), None)
        if vector is not None:
            self.model.set_params(vector)
        else:
            # Divide straight out of the fetched bytes into the one vector.
            averaged = np.empty(self.partitioner.num_params)
            for start, end, update in updates:
                np.divide(update[:-1], update[-1], out=averaged[start:end])
            self._install_update(averaged)
            if shared is not None:
                shared.append((base, averaged))
        self.completed_iterations += 1
        if bus.wants(TrainerCompleted):
            bus.publish(TrainerCompleted(
                at=self.sim.now, iteration=schedule.iteration,
                trainer=self.name,
            ))
