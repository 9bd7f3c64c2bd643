"""Blocks alias one immutable buffer — and that is safe.

Leaf blocks are read-only views of the stored object's one ``bytes``
buffer, and a node that holds an object complete serves that buffer
itself.  These tests pin what must not change with it: the bytes and
addresses stored, what happens to the buffer when the blocks go, and
that a corrupt node is still caught on the whole-buffer path.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ipfs.block import Block, chunk_object, join_leaves
from repro.ipfs.cid import compute_cid
from repro.ipfs.errors import IntegrityError

from tests.util import make_ipfs_world, run_proc

CHUNK = 64


def _distinct(size, seed=0):
    """``size`` bytes with no two equal chunks (equal chunks deduplicate
    to one stored block, which is then not a slice in sequence)."""
    return np.random.default_rng(seed).bytes(size)


def _node(chunk_size=CHUNK):
    world = make_ipfs_world(num_nodes=1)
    node = world.node(0)
    node.chunk_size = chunk_size
    return world, node


def _buffers(node):
    """The distinct buffers the node's blocks keep alive."""
    held = {}
    for cid in node.store.cids():
        data = node.store.get(cid).data
        owner = data.obj if isinstance(data, memoryview) else data
        held[id(owner)] = owner
    return list(held.values())


# -- blocks never alias writable memory ------------------------------------------


def test_leaves_are_readonly_views_of_the_one_buffer():
    data = bytes(range(256))
    root, leaves = chunk_object(data, CHUNK)
    assert len(leaves) == 4
    for index, leaf in enumerate(leaves):
        assert isinstance(leaf.data, memoryview) and leaf.data.readonly
        assert leaf.data.obj is data  # no copy
        assert leaf.offset == index * CHUNK
        assert leaf.cid == compute_cid(data[index * CHUNK:(index + 1) * CHUNK])
    assert join_leaves(leaves) is data


@pytest.mark.parametrize("wrap", [bytearray,
                                  lambda b: memoryview(bytearray(b)),
                                  lambda b: memoryview(bytearray(b))
                                  .toreadonly()])
def test_block_snapshots_anything_that_could_still_change(wrap):
    source = wrap(b"mutable bytes")
    block = Block(source)
    assert isinstance(block.data, bytes)
    assert block.cid == compute_cid(b"mutable bytes")


def test_put_of_a_bytearray_is_snapshotted_once():
    """Mutating the caller's buffer after ``put`` / ``store_object``
    changes neither the stored bytes nor the CID."""
    world, node = _node()
    client = world.client("client-0")
    original = bytes(range(200))

    mutable = bytearray(original)
    local_cid = node.store_object(mutable)
    mutable[:] = bytes(200)
    assert node.load_object(local_cid) == original

    mutable = bytearray(original[::-1])

    def scenario():
        cid = yield from client.put(mutable, node="ipfs-0")
        mutable[0] ^= 0xFF
        return cid

    remote_cid = run_proc(world, scenario())
    assert node.load_object(remote_cid) == original[::-1]
    assert remote_cid == chunk_object(original[::-1], CHUNK)[0].cid


# -- whole-buffer loads ---------------------------------------------------------------


def test_complete_object_loads_as_its_own_buffer():
    _world, node = _node()
    data = _distinct(3 * CHUNK + 5)
    cid = node.store_object(data)
    assert node.load_object(cid) is data
    assert node.load_object(cid) is data  # every time: no copy per request


def test_bare_block_loads_as_its_bytes():
    _world, node = _node()
    block = Block(b"raw bytes, no manifest")
    node.store.put(block)
    assert node.load_object(block.cid) == b"raw bytes, no manifest"


def test_objects_sharing_deduplicated_leaves_both_load_back():
    """X = A‖B and Y = B‖A share both leaves.  Y's leaves are views of
    X's buffer — in the wrong order for it — so Y must be joined, never
    answered with the buffer its leaves happen to alias."""
    _world, node = _node()
    a, b = bytes(range(CHUNK)), bytes(range(CHUNK, 2 * CHUNK))
    x, y = a + b, b + a
    cid_x = node.store_object(x)
    blocks_before = len(node.store)
    cid_y = node.store_object(y)
    assert len(node.store) == blocks_before + 1  # only Y's manifest is new
    assert node.load_object(cid_x) == x
    assert node.load_object(cid_y) == y
    assert any(buffer is x for buffer in _buffers(node))
    # Y's buffer is retained nowhere: every leaf it needed was held.
    assert all(buffer is not y for buffer in _buffers(node))


def test_incomplete_object_is_not_served_from_a_surviving_view():
    _world, node = _node()
    data = bytes(range(256))
    cid = node.store_object(data)
    _root, leaves = chunk_object(data, CHUNK)
    node.store.unpin(leaves[2].cid)
    node.store.collect_garbage()
    assert node.load_object(cid) is None


# -- the buffer goes with the blocks ------------------------------------------------


def test_reput_and_unpin_gc_leave_no_buffer_behind():
    """A re-put of an object already held keeps no second buffer, and
    unpin + GC drops the first: afterwards the node references none."""
    _world, node = _node()
    first = _distinct(8 * CHUNK)
    second = bytes(bytearray(first))  # equal bytes, another buffer
    cid = node.store_object(first)
    assert node.store_object(second) == cid
    assert [buffer is first for buffer in _buffers(node)].count(True) == 1
    assert all(buffer is not second for buffer in _buffers(node))
    node.unpin_object(cid)
    node.store.collect_garbage()
    assert len(node.store) == 0 and node.store.total_bytes == 0
    assert _buffers(node) == []
    assert node.load_object(cid) is None


# -- same addresses -------------------------------------------------------------------

#: Root CIDs recorded at the parent of the zero-copy change (copying
#: chunker), for chunk sizes 4096 and the 256 KiB default.
GOLDEN_ROOTS = {
    ("empty", 4096):
        "bafkreicprwpdvxn2t6zd53zjerszngen43st26diqtj7blkmn7b52qfj6e",
    ("empty", 262144):
        "bafkreicprwpdvxn2t6zd53zjerszngen43st26diqtj7blkmn7b52qfj6e",
    ("ramp", 4096):
        "bafkreiftouvpmgbfial6tjfslvu3nma77exaiyhqjo2p3rcvggp656jecm",
    ("ramp", 262144):
        "bafkreibjxcbzkqx32ecagrrzgoho7r2vtlfgiudy6j6fmmexcxwuquqfbe",
    ("f64", 4096):
        "bafkreiduxdfnrp47ibt6wouq6am7bgucmbabyedeat7jnzzsneamjfkhd4",
    ("f64", 262144):
        "bafkreifwwfa5zo74aprsr6jwwydjr7jcrauguc7ht54aztr2nowzmf7ani",
}
GOLDEN_BUFFERS = {
    "empty": b"",
    "ramp": bytes(range(256)) * 40,
    "f64": (np.arange(3000, dtype=np.float64) * 1e-9 + 7e-6).tobytes(),
}


@pytest.mark.parametrize("name,chunk_size", sorted(GOLDEN_ROOTS))
def test_root_cids_equal_the_goldens_of_the_copying_chunker(name, chunk_size):
    root, _leaves = chunk_object(GOLDEN_BUFFERS[name], chunk_size)
    assert root.cid.encode() == GOLDEN_ROOTS[(name, chunk_size)]


_CONTAINERS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda b: memoryview(bytearray(b)),
    "ndarray.tobytes": lambda b: np.frombuffer(b, dtype=np.uint8).tobytes(),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]),
       st.sampled_from(sorted(_CONTAINERS)), st.integers(0, 2 ** 32 - 1))
def test_store_load_roundtrip_over_sizes_and_containers(size, kind, seed):
    """Whatever holds the bytes, the object stored is byte-equal to them
    and addressed like the same bytes held any other way."""
    payload = np.random.default_rng(seed).bytes(size)
    _world, node = _node()
    cid = node.store_object(_CONTAINERS[kind](payload))
    loaded = node.load_object(cid)
    assert isinstance(loaded, bytes) and loaded == payload
    root, leaves = chunk_object(payload, CHUNK)
    assert cid == root.cid
    assert [leaf.cid for leaf in leaves] == [
        compute_cid(payload[offset:offset + CHUNK])
        for offset in range(0, size, CHUNK)] or [compute_cid(b"")]


# -- checks kept -----------------------------------------------------------------------


def test_corrupt_node_is_caught_on_the_whole_buffer_path():
    """A node that holds a multi-chunk object complete answers with its
    buffer — through ``_maybe_corrupt``: the flipped copy fails the
    client's per-fetch check, and an honest replica takes over."""
    world = make_ipfs_world(num_nodes=2)
    client = world.client("client-0")
    for node in world.nodes:
        node.chunk_size = CHUNK
    client.chunk_size = CHUNK
    data = _distinct(8 * CHUNK)
    cid = world.node(0).store_object(data)
    assert world.node(0).load_object(cid) is data  # the fast path is taken
    world.node(0).corrupt = True

    def fetch(prefer):
        return (yield from client.get(cid, prefer_nodes=prefer))

    with pytest.raises(IntegrityError):
        run_proc(world, fetch(["ipfs-0"]))
    assert world.node(0).load_object(cid) is data  # the copy was flipped

    world.node(1).store_object(bytes(bytearray(data)))
    assert run_proc(world, fetch(["ipfs-0", "ipfs-1"])) == data
    # Nothing about the failed fetch was remembered: healed, node 0 serves.
    world.node(0).corrupt = False
    assert run_proc(world, fetch(["ipfs-0"])) is data


# -- the hashing helper lane holds nothing -----------------------------------------


def test_two_lane_chunking_leaves_no_reference_to_the_buffer():
    data = _distinct(5 * CHUNK + 1)
    before = sys.getrefcount(data)
    for _ in range(3):
        root, leaves = chunk_object(data, CHUNK)
        assert all(leaf.data.obj is data for leaf in leaves)
        assert sys.getrefcount(data) > before
        del root, leaves
        assert sys.getrefcount(data) == before


def test_one_leaf_objects_start_no_thread():
    """In a fresh interpreter: objects of one leaf (and the empty one)
    are hashed on the calling thread alone; the first object of two
    leaves starts the one helper lane, and later ones reuse it."""
    script = (
        "import threading\n"
        "from repro.ipfs.block import chunk_object\n"
        "chunk_object(b'x' * 64, 64)\n"
        "chunk_object(b'', 64)\n"
        "print(threading.active_count())\n"
        "chunk_object(b'x' * 65, 64)\n"
        "chunk_object(b'y' * 640, 64)\n"
        "print(threading.active_count())\n"
    )
    assert _fresh_python(script).split() == ["1", "2"]


def test_a_forked_child_starts_its_own_helper_lane():
    script = (
        "import os, signal\n"
        "from repro.ipfs.block import chunk_object\n"
        "chunk_object(b'x' * 640, 64)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(30)  # a child left waiting on no lane dies\n"
        "    os._exit(len(chunk_object(b'y' * 640, 64)[1]))\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    assert _fresh_python(script).split() == ["10"]


def _fresh_python(script):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True, timeout=90,
                          env={**os.environ, "PYTHONPATH": src}).stdout
