"""IPFS nodes (storage servers) and the client API participants use.

The paper draws "a clean separation between IPLS participants and IPFS
nodes": trainers and aggregators are *clients* that ``put``/``get`` data to
and from storage nodes over the network.  An :class:`IPFSNode` is a server
process with a blockstore; an :class:`IPFSClient` offers ``put``, ``get``
and ``merge_and_download`` as process generators (``yield from``).

Retrieval verifies content against the CID — the adversarial model
assumes availability but "we do not assume correctness of retrieved data;
this is up to the parties to check" — and falls back to other DHT
providers on corruption or timeouts.  That check hashes every fetched
object and block on every fetch; nothing is remembered between fetches.
Storing and checking both chunk through
:func:`~repro.ipfs.block.chunk_object`, which hashes an object's leaves
on two lanes (this thread and one helper thread); no hash is skipped.

Memory: a stored object is one immutable buffer that its leaf blocks
alias (:mod:`repro.ipfs.block`).  A node that holds an object complete
serves that buffer itself — to gets, merges and replication — and keeps
no table of buffers: they go when unpin + GC drops the blocks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..faults.retry import RetryPolicy
from ..net import Endpoint, Message, Transport
from ..obs.events import BlockFetched, BlockStored, MergeServed, \
    RetryExhausted
from ..sim import Simulator
from .block import Block, DEFAULT_CHUNK_SIZE, chunk_object, join_leaves, \
    parse_manifest
from .blockstore import Blockstore
from .cid import CID, compute_cid
from .dht import DHT
from .errors import IntegrityError, IPFSError, MergeError, NodeOfflineError, \
    NotFoundError
from .merge import sum_f64

# Message kinds.
KIND_PUT = "ipfs.put"
KIND_PUT_ACK = "ipfs.put.ack"
KIND_GET = "ipfs.get"
KIND_GET_DATA = "ipfs.get.data"
KIND_MERGE = "ipfs.merge"
KIND_MERGE_DATA = "ipfs.merge.data"
KIND_REPLICATE = "ipfs.replicate"
KIND_UNPIN = "ipfs.unpin"

#: Wire overheads (bytes): request framing and a CID on the wire.
REQUEST_OVERHEAD = 256
CID_WIRE_SIZE = 64
ACK_SIZE = 128
#: DHT providers a get tries after its preferred nodes.
MAX_PROVIDERS = 5
#: Seconds a client waits for one IPFS request attempt.
IPFS_REQUEST_TIMEOUT = 120.0


class IPFSNode:
    """One storage node: a server loop over a blockstore.

    Set :attr:`online` to False to simulate a dropout (requests are
    silently dropped) and :attr:`corrupt` to True to serve flipped bytes
    (exercising client-side integrity checking).
    """

    def __init__(self, sim: Simulator, transport: Transport, dht: DHT,
                 name: str, chunk_size: int = DEFAULT_CHUNK_SIZE):
        self.sim = sim
        self.transport = transport
        self.dht = dht
        self.name = name
        self.store = Blockstore(sim, name)
        self.chunk_size = chunk_size
        self.online = True
        self.corrupt = False
        #: Set by :class:`~repro.ipfs.cluster.ReplicationCluster`.
        self.cluster = None
        #: Telemetry.
        self.merges_served = 0
        self.endpoint: Endpoint = transport.endpoint(name)
        sim.process(self._serve(), name=f"ipfs-node:{name}")

    # -- local storage operations (no network) --------------------------------

    def store_object(self, data: bytes) -> CID:
        """Chunk, store, pin and advertise ``data``; returns the root
        CID."""
        root, leaves = chunk_object(data, self.chunk_size)
        for leaf in leaves:
            self.store.put(leaf)
        self.store.put(root)
        self.dht.provide(root.cid, self.name)
        bus = self.sim.bus
        if bus.wants(BlockStored):
            bus.publish(BlockStored(
                at=self.sim.now, node=self.name, cid=root.cid,
                size=len(data),
            ))
        return root.cid

    def _stored_blocks(self, root_cid: CID) -> Optional[List[Optional[Block]]]:
        """Root block, then the leaves its manifest lists (None in place
        of each one missing); None when the root itself is missing."""
        root = self.store.get(root_cid)
        if root is None:
            return None
        try:
            return [root] + [self.store.get(cid)
                             for cid in parse_manifest(root)]
        except ValueError:
            return [root]  # a bare (unchunked) block stored directly

    def load_object(self, root_cid: CID) -> Optional[bytes]:
        """The bytes of a stored object; None if any block is missing.

        An object held complete as it was stored is its one buffer — no
        copy per request; see :func:`~repro.ipfs.block.join_leaves`.
        """
        blocks = self._stored_blocks(root_cid)
        if blocks is None or any(block is None for block in blocks):
            return None
        return join_leaves(blocks[1:] or blocks)  # bare block: its own leaf

    def unpin_object(self, root_cid: CID) -> None:
        """Unpin a whole object (root and leaves)."""
        for block in self._stored_blocks(root_cid) or ():
            if block is not None:  # a missing block holds no pin
                self.store.unpin(block.cid)

    # -- server loop ----------------------------------------------------------

    def _serve(self):
        while True:
            message = yield self.endpoint.receive()
            if not self.online:
                continue  # dropped on the floor: client sees a timeout
            self.sim.process(
                self._handle(message), name=f"{self.name}:{message.kind}"
            )

    def _handle(self, message: Message):
        if message.kind == KIND_PUT:
            yield from self._handle_put(message)
        elif message.kind == KIND_GET:
            yield from self._serve_bytes(message, KIND_GET_DATA,
                                         self.load_object(message.payload))
        elif message.kind == KIND_MERGE:
            yield from self._handle_merge(message)
        elif message.kind == KIND_REPLICATE:
            yield from self._handle_replicate(message)
        elif message.kind == KIND_UNPIN:
            self.unpin_object(message.payload)
            yield self.sim.timeout(0)
        # Unknown kinds are ignored (forward compatibility).

    def _handle_put(self, message: Message):
        data: bytes = message.payload
        root_cid = self.store_object(data)
        if self.cluster is not None:
            self.cluster.schedule_replication(self, root_cid)
        yield self.endpoint.respond(
            message, KIND_PUT_ACK, payload=root_cid, size=ACK_SIZE
        )

    def _maybe_corrupt(self, data: bytes) -> bytes:
        if not self.corrupt or not data:
            return data
        flipped = bytearray(data)
        flipped[0] ^= 0xFF
        return bytes(flipped)

    def _serve_bytes(self, message: Message, kind: str,
                     data: Optional[bytes]):
        """Answer a get with ``data`` (None: a miss).  Whichever path
        produced the bytes, they leave through :meth:`_maybe_corrupt`."""
        if data is None:
            yield self.endpoint.respond(message, kind, payload=None,
                                        size=ACK_SIZE)
            return
        data = self._maybe_corrupt(data)
        yield self.endpoint.respond(message, kind, payload=data,
                                    size=len(data) + REQUEST_OVERHEAD)

    def _handle_merge(self, message: Message):
        request = message.payload  # {"cids": [...]}
        self.merges_served += 1
        blobs = []
        missing = []
        for cid in request["cids"]:
            data = self.load_object(cid)
            if data is None:
                missing.append(cid)
            else:
                blobs.append(data)
        if missing or not blobs:
            yield self.endpoint.respond(
                message, KIND_MERGE_DATA,
                payload={"error": "missing", "missing": missing},
                size=ACK_SIZE,
            )
            return
        try:
            merged = sum_f64(blobs)
        except MergeError as exc:
            yield self.endpoint.respond(
                message, KIND_MERGE_DATA,
                payload={"error": str(exc)}, size=ACK_SIZE,
            )
            return
        merged = self._maybe_corrupt(merged)
        bus = self.sim.bus
        if bus.wants(MergeServed):
            # The consumed source objects: a merge is the only read those
            # blocks ever see, so leak monitors count them as fetched.
            bus.publish(MergeServed(
                at=self.sim.now, node=self.name,
                cids=tuple(request["cids"]), size=len(merged),
            ))
        yield self.endpoint.respond(
            message, KIND_MERGE_DATA,
            payload={"data": merged, "count": len(blobs)},
            size=len(merged) + REQUEST_OVERHEAD,
        )

    def _handle_replicate(self, message: Message):
        data: bytes = message.payload
        self.store_object(data)
        yield self.sim.timeout(0)


class IPFSClient:
    """Client-side API: process generators for put/get/merge-and-download."""

    def __init__(self, name: str, transport: Transport, dht: DHT,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 retry: Optional[RetryPolicy] = None):
        self.name = name
        self.dht = dht
        self.sim: Simulator = transport.sim
        self.request_timeout = IPFS_REQUEST_TIMEOUT
        #: Bounded-backoff policy for :meth:`get`; None = single attempt.
        self.retry = retry
        #: Must match the chunk size of the nodes, as the object CID binds
        #: the chunk manifest.
        self.chunk_size = chunk_size
        self.endpoint = transport.endpoint(name)
        #: Telemetry (bytes).
        self.bytes_downloaded = 0.0

    # -- public API -------------------------------------------------------------

    def put(self, data: bytes, node: str):
        """Upload ``data`` to ``node``; returns the root CID.

        The paper measures "the time between uploading the gradients to an
        IPFS node until the receipt of the store acknowledgment" — that is
        exactly the duration of this call.
        """
        size = len(data) + REQUEST_OVERHEAD
        response = yield self.endpoint.request(
            node, KIND_PUT, bytes(data), size, self.request_timeout)
        if response is None:
            raise NodeOfflineError(f"put to {node!r} timed out")
        root_cid: CID = response.payload
        return root_cid

    def get(self, cid: CID, prefer_nodes: Sequence[str] = ()):
        """Download and verify the object behind ``cid``.

        Tries ``prefer_nodes`` first, then up to :data:`MAX_PROVIDERS`
        from the DHT.  Corrupted responses (hash mismatch) and timeouts
        skip to the next provider.  When the client has a
        :class:`RetryPolicy`, a
        fully failed pass retries with bounded backoff, re-querying the
        DHT each attempt.  Raises the final attempt's :class:`IPFSError`
        (:class:`NotFoundError` et al.) when exhausted.
        """
        policy = self.retry
        if policy is None:
            return (yield from self._get_once(cid, prefer_nodes))
        attempts = policy.max_attempts
        for attempt in range(attempts):
            # The error is not kept in a local: its traceback holds this
            # frame, and the two would be a cycle only the collector frees.
            try:
                return (yield from self._get_once(cid, prefer_nodes))
            except IPFSError:
                if attempt + 1 == attempts:
                    bus = self.sim.bus
                    if bus.wants(RetryExhausted):
                        bus.publish(RetryExhausted(
                            at=self.sim.now, actor=self.name,
                            operation="ipfs.get", attempts=attempts,
                        ))
                    raise
            yield self.sim.timeout(
                policy.backoff(attempt, key=f"{self.name}:get:{cid}")
            )

    def _get_once(self, cid: CID, prefer_nodes: Sequence[str]):
        """One retrieval pass over preferred nodes plus DHT providers."""
        fetch_started = self.sim.now
        candidates: List[str] = list(prefer_nodes)
        discovered = yield from self.dht.find_providers(
            cid, limit=MAX_PROVIDERS, querier=self.name
        )
        for node in discovered:
            if node not in candidates:
                candidates.append(node)
        if not candidates:
            raise NotFoundError(f"no providers for {cid!r}")
        last_error: Optional[Exception] = None
        for node in candidates:
            response = yield self.endpoint.request(
                node, KIND_GET, cid, REQUEST_OVERHEAD + CID_WIRE_SIZE,
                self.request_timeout)
            if response is None:
                last_error = NodeOfflineError(f"get from {node!r} timed out")
                continue
            data = response.payload
            if data is None:
                last_error = NotFoundError(f"{node!r} no longer has {cid!r}")
                continue
            if not self._is_object(cid, data):
                last_error = IntegrityError(
                    f"{node!r} served bytes not matching {cid!r}"
                )
                continue
            self.bytes_downloaded += len(data) + REQUEST_OVERHEAD
            bus = self.sim.bus
            if bus.wants(BlockFetched):
                bus.publish(BlockFetched(
                    at=self.sim.now, client=self.name, node=node, cid=cid,
                    size=len(data) + REQUEST_OVERHEAD,
                    started_at=fetch_started,
                ))
            return data
        try:
            raise last_error or NotFoundError(f"could not retrieve {cid!r}")
        finally:
            last_error = None  # the raised error's traceback holds us

    def _is_object(self, cid: CID, data: bytes) -> bool:
        """Integrity check of a fetched object, run on every fetch.

        Objects are stored chunked under a manifest root, so the CID binds
        the manifest: re-chunk the data (over views — every byte hashed,
        none copied) and compare.  A bare block's CID binds the data itself.
        """
        root, _leaves = chunk_object(data, self.chunk_size)
        return root.cid == cid or compute_cid(data) == cid

    def merge_and_download(self, cids: Iterable[CID], node: str):
        """Ask ``node`` to sum ``cids`` (:func:`~repro.ipfs.merge.sum_f64`)
        and return the merged bytes.

        Returns ``(merged_bytes, count)``.  Raises :class:`MergeError` on a
        provider-side failure and :class:`NodeOfflineError` on a timeout.
        No client-side integrity check is possible against a single CID —
        the verifiable-aggregation layer checks the merged result against
        the product of the constituent Pedersen commitments instead.
        """
        fetch_started = self.sim.now
        cid_list = list(cids)
        request = {"cids": cid_list}
        size = REQUEST_OVERHEAD + CID_WIRE_SIZE * len(cid_list)
        response = yield self.endpoint.request(
            node, KIND_MERGE, request, size, self.request_timeout)
        if response is None:
            raise NodeOfflineError(f"merge on {node!r} timed out")
        payload = response.payload
        if "error" in payload:
            raise MergeError(f"merge on {node!r} failed: {payload['error']}")
        merged: bytes = payload["data"]
        self.bytes_downloaded += len(merged) + REQUEST_OVERHEAD
        bus = self.sim.bus
        if bus.wants(BlockFetched):
            # A merged download has no single source CID; record the fetch
            # itself (the commitment check authenticates the bytes).
            bus.publish(BlockFetched(
                at=self.sim.now, client=self.name, node=node, cid=None,
                size=len(merged) + REQUEST_OVERHEAD,
                started_at=fetch_started,
            ))
        return merged, payload["count"]

    def unpin(self, cid: CID, node: str):
        """Fire-and-forget unpin of an object on ``node``."""
        self.endpoint.send(node, KIND_UNPIN, payload=cid,
                           size=REQUEST_OVERHEAD)
        yield self.sim.timeout(0)
