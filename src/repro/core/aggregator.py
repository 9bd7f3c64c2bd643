"""The aggregator role (Algorithm 1, ``AGGREGATOR`` + Sec. IV-B sync).

Per iteration an aggregator responsible for partition ``i``:

1. polls the directory for its trainers' gradient CIDs and downloads them
   — either individually, or via *merge-and-download* requests that make
   each provider node pre-aggregate the gradients it stores (Sec. III-E),
2. sums them into its partial update,
3. if it shares the partition with peers (|A_i| > 1): uploads the partial,
   announces its CID over pub/sub, collects and (in verifiable mode)
   checks the peers' partials against the directory's per-aggregator
   accumulated commitments, taking over a silent peer's trainers after a
   grace period,
4. uploads the globally updated partition; the directory keeps the first
   (verified) registration.

Malicious behaviours plug in via :class:`~repro.core.adversary.
AggregatorBehavior` and tamper with steps 2 and 4.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from ..crypto import Commitment
from ..faults.retry import RetryPolicy
from ..ipfs import DHT, IPFSClient, IPFSError, PubSub
from ..net import Transport
from ..obs.events import (
    BytesReceived,
    GradientsAggregated,
    PartialUpdateRegistered,
    SyncPhaseEnded,
    SyncPhaseStarted,
    TakeoverPerformed,
    UpdateRegistered,
    VerificationFailed,
)
from ..sim import Simulator
from .addressing import Address, GRADIENT, PARTIAL_UPDATE, UPDATE
from .adversary import AggregatorBehavior, HonestBehavior
from .bootstrapper import Assignment
from .config import ProtocolConfig
from .directory import DirectoryClient
from .partition import _partition_view, encode_partition, \
    sum_encoded_partitions
from .schedule import IterationSchedule, Participant
from .verification import CommitmentCostModel, PartitionCommitter

CID_WIRE_SIZE = 64


def sync_topic(partition_id: int, iteration: int) -> str:
    """The pub/sub topic aggregators of one partition synchronize on."""
    return f"ipls/sync/p{partition_id}/i{iteration}"


class Aggregator(Participant):
    """One aggregator participant."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        transport: Transport,
        dht: DHT,
        pubsub: PubSub,
        config: ProtocolConfig,
        assignment: Assignment,
        partition_len: int = 0,
        committer: Optional[PartitionCommitter] = None,
        behavior: Optional[AggregatorBehavior] = None,
        retry: Optional[RetryPolicy] = None,
        directory_request_timeout: Optional[float] = None,
    ):
        super().__init__(name, sim)
        self.config = config
        self.assignment = assignment
        self.pubsub = pubsub
        self.partition_len = partition_len
        self.committer = committer
        self.behavior = behavior or HonestBehavior()
        self.partition_id = assignment.partition_of[name]
        self.trainers = list(
            assignment.trainers_of[(self.partition_id, name)]
        )
        self.ipfs = IPFSClient(name, transport, dht,
                               chunk_size=config.chunk_size,
                               retry=retry)
        self.directory = DirectoryClient(
            name, transport, retry=retry,
            request_timeout=directory_request_timeout,
        )
        self.cost_model = CommitmentCostModel(config.commit_seconds_per_param)
        self.dht = dht

    @property
    def _upload_node(self) -> str:
        return self.assignment.update_node_of[self.name]

    def _put_with_fallback(self, blob: bytes):
        """Store ``blob`` on the assigned node, falling back to any live
        node if it is unreachable.  Returns the CID or None."""
        candidates = [self._upload_node] + [
            node for node in self.assignment.storage_nodes
            if node != self._upload_node
        ]
        for node in candidates:
            try:
                cid = yield from self.ipfs.put(blob, node=node)
                return cid
            except IPFSError:
                continue
        return None

    # -- gradient collection ---------------------------------------------------------

    def _collect_gradients(self, schedule: IterationSchedule):
        """Download this aggregator's trainers' gradients.

        Returns ``(blobs, rows)``: trainer -> encoded partition, and the
        directory rows (with commitments) that produced them.
        """
        pending: Set[str] = set(self.trainers)
        rows_by_trainer: Dict[str, dict] = {}
        blobs: Dict[str, bytes] = {}
        download_procs = []

        def download(row):
            try:
                blob = yield from self.ipfs.get(row["cid"])
            except IPFSError:
                return
            blobs[row["uploader_id"]] = blob

        while pending and self.sim.now < schedule.t_sync:
            results = yield from self.directory.lookup(
                self.partition_id, schedule.iteration, GRADIENT,
                aggregator_id=self.name,
            )
            new_rows = [row for row in results
                        if row["uploader_id"] in pending]
            for row in new_rows:
                pending.discard(row["uploader_id"])
                rows_by_trainer[row["uploader_id"]] = row
                if not self.config.merge_and_download:
                    download_procs.append(self._spawn(
                        download(row),
                        name=f"{self.name}:dl:{row['uploader_id']}",
                    ))
            if not pending:
                break
            if self.sim.now >= schedule.t_train:
                # Late trainers have aborted; stop waiting for them.
                break
            yield self.sim.timeout(min(
                self.config.poll_interval,
                max(self.config.poll_interval / 10,
                    schedule.remaining_sync(self.sim.now)),
            ))

        if self.config.merge_and_download:
            merged = yield from self._merge_download(
                list(rows_by_trainer.values())
            )
            return merged, rows_by_trainer

        yield from self._join(download_procs)
        return blobs, rows_by_trainer

    def _merge_download(self, rows: List[dict]):
        """Issue one merge-and-download per provider node holding data.

        Falls back to individual downloads for a group whose merged result
        fails the commitment-product check (malicious/corrupt provider).
        """
        groups: Dict[str, List[dict]] = {}
        for row in rows:
            providers = yield from self.dht.find_providers(
                row["cid"], querier=self.name
            )
            if not providers:
                continue
            groups.setdefault(providers[0], []).append(row)

        results: Dict[str, bytes] = {}

        def fetch_group(node, group):
            cids = [row["cid"] for row in group]
            try:
                merged, _count = yield from self.ipfs.merge_and_download(
                    cids, node=node
                )
            except IPFSError:
                merged = None
            if merged is not None and self._merged_is_valid(merged, group):
                results[node] = merged
                return
            # Fallback: fetch and sum each gradient individually.
            blobs = []
            for row in group:
                try:
                    blob = yield from self.ipfs.get(row["cid"])
                except IPFSError:
                    continue
                blobs.append(blob)
            if blobs:
                results[node] = sum_encoded_partitions(blobs)

        procs = [
            self._spawn(fetch_group(node, group),
                        name=f"{self.name}:merge:{node}")
            for node, group in groups.items()
        ]
        yield from self._join(procs)
        # Keyed by provider node, so select_gradients (the adversary hook)
        # still sees per-source entries.
        return dict(results)

    def _merged_is_valid(self, merged: bytes, group: List[dict]) -> bool:
        """Sec. IV: the merged blob must open the product of the group's
        commitments."""
        if not self.config.verifiable or self.committer is None:
            return True
        commitments = [row["commitment"] for row in group]
        if any(commitment is None for commitment in commitments):
            return False
        expected = Commitment.product(commitments, self.committer.curve)
        return self.committer.verify_blob(merged, expected)

    # -- synchronization (|A_i| > 1) ----------------------------------------------------

    def _takeover(self, peer: str, schedule: IterationSchedule):
        """Download a silent peer's trainers' gradients on its behalf."""
        results = yield from self.directory.lookup(
            self.partition_id, schedule.iteration, GRADIENT,
            aggregator_id=peer,
        )
        blobs = []
        for row in results:
            try:
                blob = yield from self.ipfs.get(row["cid"])
            except IPFSError:
                continue
            blobs.append(blob)
        if not blobs:
            return None
        bus = self.sim.bus
        if bus.wants(TakeoverPerformed):
            bus.publish(TakeoverPerformed(
                at=self.sim.now, iteration=schedule.iteration,
                aggregator=self.name, peer=peer,
            ))
        return sum_encoded_partitions(blobs)

    # -- the per-iteration process --------------------------------------------------------

    def run_iteration(self, schedule: IterationSchedule):
        """Process generator executing one round for this aggregator.

        Reports outcomes (aggregation/sync timing, bytes moved,
        takeovers, rejections) as :mod:`repro.obs` events on ``sim.bus``.
        """
        bus = self.sim.bus
        self._begin_round()
        peers = self.assignment.peers_of(self.name)
        subscription = None
        if peers:
            subscription = self.pubsub.subscribe(
                sync_topic(self.partition_id, schedule.iteration), self.name
            )
        bytes_start = self.ipfs.bytes_downloaded
        collect_started = self.sim.now

        blobs, _rows = yield from self._collect_gradients(schedule)
        if bus.wants(GradientsAggregated):
            bus.publish(GradientsAggregated(
                at=self.sim.now, iteration=schedule.iteration,
                aggregator=self.name, partition_id=self.partition_id,
                started_at=collect_started,
            ))

        blobs = self.behavior.select_gradients(blobs)
        if blobs:
            partial_blob = sum_encoded_partitions(list(blobs.values()))
        elif self.partition_len > 0:
            partial_blob = encode_partition(
                np.zeros(self.partition_len), 0.0
            )
        else:
            partial_blob = None
        del blobs  # summed: the downloads are not needed again

        contributions: Dict[str, bytes] = {}
        if partial_blob is not None:
            contributions[self.name] = partial_blob

        try:
            if peers:
                yield from self._sync_phase(
                    schedule, partial_blob, peers, subscription,
                    contributions,
                )
            if not contributions:
                return
            if peers:
                # "Only the first aggregator who achieves the true globally
                # updated partition writes back to the directory": skip the
                # upload when a peer already registered this partition.
                existing = yield from self.directory.lookup(
                    self.partition_id, schedule.iteration, UPDATE
                )
                if existing:
                    return
            publish_started = self.sim.now
            global_blob = sum_encoded_partitions(
                list(contributions.values())
            )
            if _partition_view(global_blob)[-1] <= 0:
                return  # nothing aggregated (deadline passed with no data)
            global_blob = self.behavior.tamper_update(global_blob)
            cid = yield from self._put_with_fallback(global_blob)
            if cid is None:
                return
            ack = yield from self.directory.register(
                Address(uploader_id=self.name,
                        partition_id=self.partition_id,
                        iteration=schedule.iteration, kind=UPDATE),
                cid,
            )
            if ack.get("accepted") and bus.wants(UpdateRegistered):
                bus.publish(UpdateRegistered(
                    at=self.sim.now, iteration=schedule.iteration,
                    aggregator=self.name, partition_id=self.partition_id,
                    started_at=publish_started,
                ))
        finally:
            if subscription is not None:
                subscription.cancel()
            if bus.wants(BytesReceived):
                bus.publish(BytesReceived(
                    at=self.sim.now, iteration=schedule.iteration,
                    participant=self.name,
                    amount=self.ipfs.bytes_downloaded - bytes_start,
                ))

    def _sync_phase(self, schedule, partial_blob, peers,
                    subscription, contributions):
        bus = self.sim.bus
        sync_start = self.sim.now
        if bus.wants(SyncPhaseStarted):
            bus.publish(SyncPhaseStarted(
                at=sync_start, iteration=schedule.iteration,
                aggregator=self.name, partition_id=self.partition_id,
            ))
        if partial_blob is not None:
            announced = self.behavior.tamper_update(partial_blob)
            cid = yield from self._put_with_fallback(announced)
            if cid is not None:
                yield from self.directory.register(
                    Address(uploader_id=self.name,
                            partition_id=self.partition_id,
                            iteration=schedule.iteration,
                            kind=PARTIAL_UPDATE),
                    cid,
                )
                if bus.wants(PartialUpdateRegistered):
                    bus.publish(PartialUpdateRegistered(
                        at=self.sim.now, iteration=schedule.iteration,
                        aggregator=self.name,
                        partition_id=self.partition_id,
                    ))
                self.pubsub.publish(
                    sync_topic(self.partition_id, schedule.iteration),
                    self.name,
                    payload={"aggregator": self.name, "cid": cid},
                    size=CID_WIRE_SIZE,
                )

        pending: Set[str] = set(peers)
        takeover_at = max(schedule.t_train, self.sim.now) \
            + self.config.takeover_grace
        # One persistent queue getter: replaced only after it fires, so an
        # abandoned getter never swallows a peer's announcement.
        message_event = subscription.get()
        while pending and self.sim.now < schedule.t_sync:
            deadline = min(takeover_at, schedule.t_sync)
            wait = max(0.0, deadline - self.sim.now)
            timeout_event = self.sim.timeout(wait)
            outcome = yield self.sim.any_of([message_event, timeout_event])
            if message_event in outcome:
                timeout_event.cancel()  # lost its race; nothing waits on it
                payload = outcome[message_event].payload
                message_event = subscription.get()
                peer = payload["aggregator"]
                if peer not in pending:
                    continue
                try:
                    blob = yield from self.ipfs.get(payload["cid"])
                except IPFSError:
                    continue
                valid = True
                if self.config.verifiable and self.committer is not None:
                    valid = yield from self._opens_accumulated(
                        self.committer, self.partition_id,
                        schedule.iteration, peer, blob)
                if valid:
                    pending.discard(peer)
                    contributions[peer] = blob
                elif bus.wants(VerificationFailed):
                    bus.publish(VerificationFailed(
                        at=self.sim.now, iteration=schedule.iteration,
                        label=(f"partial_update/p{self.partition_id}"
                               f"/i{schedule.iteration}/{peer}"),
                        scope="partial_update",
                        partition_id=self.partition_id,
                        aggregator=peer,
                        reason="partial update does not open the peer's "
                               "accumulated commitment",
                    ))
            elif self.sim.now >= takeover_at:
                # Grace expired: cover the silent peers' trainer sets.
                for peer in sorted(pending):
                    blob = yield from self._takeover(peer, schedule)
                    if blob is not None:
                        contributions[peer] = blob
                    pending.discard(peer)
        if bus.wants(SyncPhaseEnded):
            bus.publish(SyncPhaseEnded(
                at=self.sim.now, iteration=schedule.iteration,
                aggregator=self.name, duration=self.sim.now - sync_start,
                partition_id=self.partition_id,
            ))
