"""Directory-load reduction (paper Sec. VI, "Minimize the query load of
the directory service").

Two mechanisms the paper sketches as future work:

1. **Batch registration** — "instead of writing the hash of each
   partition to the directory service, trainers only need to send an
   accumulation over the hashes of gradient partitions."  A trainer
   registers all P of its partitions in a single message carrying the
   individual records plus one accumulated digest over the CIDs; the
   directory checks the accumulation before accepting, turning P
   round-trips into one.

2. **Map snapshot offload** — "reduce its load by delegating the storage
   of its maps to the IPFS network, making the IPFS nodes responsible
   for replying to map queries."  Once a partition's gradient set is
   complete for an iteration, the directory *seals* it into a snapshot
   block stored on IPFS; subsequent lookups are answered with the tiny
   snapshot CID and the actual map rows are served by storage nodes.

Both are measured by the ``test_directory_offload`` ablation benchmark.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..ipfs import CID, IPFSClient
from ..obs.events import SnapshotSealed
from .addressing import GRADIENT
from .directory import DirectoryService


def accumulate_cids(cids: Sequence[CID]) -> bytes:
    """Order-independent accumulation over a set of CIDs.

    XOR of the SHA-256 digests of the individual digests: commutative, so
    the directory can re-derive it from records received in any order,
    and any substituted/omitted CID changes the value.
    """
    accumulator = bytearray(32)
    for cid in cids:
        digest = hashlib.sha256(cid.digest).digest()
        for index in range(32):
            accumulator[index] ^= digest[index]
    return bytes(accumulator)


# -- map snapshots ---------------------------------------------------------------


def encode_snapshot(partition_id: int, iteration: int,
                    rows: List[dict]) -> bytes:
    """Serialize a sealed partition map as an IPFS-storable blob."""
    payload = {
        "kind": "repro-directory-snapshot-v1",
        "partition_id": partition_id,
        "iteration": iteration,
        "rows": [
            {
                "uploader_id": row["uploader_id"],
                "cid": row["cid"].encode(),
                "commitment": (
                    row["commitment"].to_bytes().hex()
                    if row.get("commitment") is not None else None
                ),
            }
            for row in rows
        ],
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def decode_snapshot(blob: bytes) -> Tuple[int, int, List[dict]]:
    """Inverse of :func:`encode_snapshot`.

    Returns ``(partition_id, iteration, rows)``.  A row's commitment
    stays in its wire form (bytes, or None): ``Commitment.from_bytes``
    revives it on the caller's curve.
    """
    payload = json.loads(blob.decode("utf-8"))
    if payload.get("kind") != "repro-directory-snapshot-v1":
        raise ValueError("not a directory snapshot")
    rows = []
    for row in payload["rows"]:
        commitment = row["commitment"]
        rows.append({
            "uploader_id": row["uploader_id"],
            "cid": CID.decode(row["cid"]),
            "commitment": (None if commitment is None
                           else bytes.fromhex(commitment)),
        })
    return payload["partition_id"], payload["iteration"], rows


class SnapshotPublisher:
    """Directory-side: seal completed partition maps into IPFS blocks.

    Attach to a :class:`DirectoryService` and call :meth:`seal` once a
    partition's gradient set is complete (e.g. when the trainer upload
    window closes).  The snapshot CID is the only thing the directory
    needs to hand out afterwards.
    """

    def __init__(self, directory: DirectoryService, ipfs: IPFSClient,
                 node: str):
        self.directory = directory
        self.ipfs = ipfs
        self.node = node
        #: (partition_id, iteration) -> snapshot CID.
        self.snapshots: Dict[Tuple[int, int], CID] = {}

    def seal(self, partition_id: int, iteration: int):
        """Process generator: publish the current map as a snapshot."""
        rows = [
            {
                "uploader_id": entry.address.uploader_id,
                "cid": entry.cid,
                "commitment": entry.commitment,
            }
            for entry in self.directory.state.entries_for(
                partition_id, iteration, GRADIENT
            )
        ]
        blob = encode_snapshot(partition_id, iteration, rows)
        snapshot_cid = yield from self.ipfs.put(blob, node=self.node)
        self.snapshots[(partition_id, iteration)] = snapshot_cid
        bus = self.directory.sim.bus
        if bus.wants(SnapshotSealed):
            bus.publish(SnapshotSealed(
                at=self.directory.sim.now, iteration=iteration,
                partition_id=partition_id, node=self.node,
                cid=snapshot_cid.encode(),
            ))
        return snapshot_cid

    def snapshot_cid(self, partition_id: int,
                     iteration: int) -> Optional[CID]:
        return self.snapshots.get((partition_id, iteration))


class SnapshotReader:
    """Participant-side: resolve a partition map from its IPFS snapshot.

    Replaces per-row directory lookups with one storage-network fetch;
    the directory serves only the 64-byte snapshot CID.
    """

    def __init__(self, ipfs: IPFSClient):
        self.ipfs = ipfs

    def fetch(self, snapshot_cid: CID,
              prefer_nodes: Sequence[str] = ()):
        """Process generator: download and decode a snapshot's rows."""
        blob = yield from self.ipfs.get(snapshot_cid,
                                        prefer_nodes=prefer_nodes)
        _partition, _iteration, rows = decode_snapshot(blob)
        return rows
