"""Unit and property tests for CIDs, blocks and chunking."""

import hashlib
import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ipfs.block as block_module
from repro.ipfs import CID
from repro.ipfs.block import (Block, chunk_object, join_leaves,
                              parse_manifest)
from repro.ipfs.cid import compute_cid


# -- CID ----------------------------------------------------------------------


def test_cid_is_sha256():
    data = b"hello ipfs"
    cid = compute_cid(data)
    assert cid.digest == hashlib.sha256(data).digest()


def test_cid_deterministic():
    assert compute_cid(b"x") == compute_cid(b"x")
    assert compute_cid(b"x") != compute_cid(b"y")


def test_cid_encode_decode_roundtrip():
    cid = compute_cid(b"some data")
    encoded = cid.encode()
    assert encoded.startswith("b")
    assert CID.decode(encoded) == cid


def test_cid_encode_is_lowercase_base32():
    encoded = compute_cid(b"data").encode()
    assert encoded == encoded.lower()


def test_cid_decode_rejects_garbage():
    with pytest.raises(ValueError):
        CID.decode("not-a-cid")
    with pytest.raises(ValueError):
        CID.decode("xabc")


def test_cid_requires_32_byte_digest():
    with pytest.raises(ValueError):
        CID(digest=b"short")


def test_compute_cid_requires_bytes():
    with pytest.raises(TypeError):
        compute_cid("a string")


def test_verify_cid():
    data = b"gradient bytes"
    cid = compute_cid(data)
    assert compute_cid(data) == cid
    assert compute_cid(data + b"!") != cid


def test_cid_hashable():
    table = {compute_cid(b"a"): 1, compute_cid(b"b"): 2}
    assert table[compute_cid(b"a")] == 1


@given(st.binary(max_size=512))
def test_cid_roundtrip_property(data):
    cid = compute_cid(data)
    assert CID.decode(cid.encode()) == cid


# -- Block / chunking ------------------------------------------------------------


def test_block_cid_matches_data():
    block = Block(b"payload")
    assert block.cid == compute_cid(b"payload")
    assert block.size == 7


def test_chunk_small_object_single_leaf():
    root, leaves = chunk_object(b"tiny", chunk_size=1024)
    assert len(leaves) == 1
    assert leaves[0].data == b"tiny"
    assert parse_manifest(root) == [leaves[0].cid]


def test_chunk_object_splits_on_boundary():
    data = bytes(range(10)) * 100  # 1000 bytes
    root, leaves = chunk_object(data, chunk_size=256)
    assert len(leaves) == 4  # 256+256+256+232
    assert sum(leaf.size for leaf in leaves) == 1000


def test_chunk_empty_object():
    root, leaves = chunk_object(b"", chunk_size=256)
    assert len(leaves) == 1
    assert join_leaves(leaves) == b""


def test_chunk_invalid_size():
    with pytest.raises(ValueError):
        chunk_object(b"data", chunk_size=0)


def test_manifest_lists_leaves_in_order():
    data = b"a" * 300
    root, leaves = chunk_object(data, chunk_size=256)
    assert parse_manifest(root) == [leaf.cid for leaf in leaves]


def test_parse_manifest_rejects_raw_block():
    with pytest.raises(ValueError):
        parse_manifest(Block(b"\x00\x01binary"))
    with pytest.raises(ValueError):
        parse_manifest(Block(b'{"not": "a manifest"}'))


def test_reassemble_roundtrip():
    data = bytes(i % 251 for i in range(5000))
    root, leaves = chunk_object(data, chunk_size=512)
    assert join_leaves(leaves) == data
    # Fewer leaves than the buffer holds are joined, never answered with it.
    assert join_leaves(leaves[:-1]) == data[:len(data) - leaves[-1].size]


def test_reassemble_out_of_order_leaves():
    """As the node loads an object: leaves looked up by the CIDs the root
    lists, whatever order they were stored in."""
    data = b"0123456789" * 100
    root, leaves = chunk_object(data, chunk_size=128)
    by_cid = {leaf.cid: leaf for leaf in reversed(leaves)}
    assert join_leaves([by_cid[cid] for cid in parse_manifest(root)]) == data


def test_manifest_cid_changes_with_data():
    root1, _ = chunk_object(b"data-one", chunk_size=4)
    root2, _ = chunk_object(b"data-two", chunk_size=4)
    assert root1.cid != root2.cid


@settings(max_examples=50)
@given(st.binary(max_size=4096), st.integers(min_value=1, max_value=1024))
def test_chunk_reassemble_property(data, chunk_size):
    root, leaves = chunk_object(data, chunk_size=chunk_size)
    assert join_leaves(leaves) == data
    expected = max(1, -(-len(data) // chunk_size))
    assert len(leaves) == expected


# -- two hashing lanes --------------------------------------------------------------


def _reference_chunks(data, chunk_size):
    """Serial, copying reference: (offset, bytes, CID) per leaf and the
    root CID, every hash taken with ``hashlib`` on this thread."""
    pieces = [(offset, data[offset:offset + chunk_size])
              for offset in range(0, len(data), chunk_size)] or [(None, b"")]
    leaves = [(offset, piece, CID(hashlib.sha256(piece).digest()))
              for offset, piece in pieces]
    manifest = {"magic": "repro-ipfs-manifest-v1", "total_size": len(data),
                "chunks": [cid.encode() for _, _, cid in leaves]}
    root = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return leaves, CID(hashlib.sha256(root).digest())


@settings(max_examples=200)
@given(st.data())
def test_two_lane_chunking_equals_a_serial_reference(data):
    chunk_size = data.draw(st.integers(min_value=1, max_value=48))
    size = data.draw(st.integers(min_value=0, max_value=5 * chunk_size + 1))
    payload = random.Random(data.draw(st.integers(0, 2**16))).randbytes(size)
    root, leaves = chunk_object(payload, chunk_size)
    expected, expected_root = _reference_chunks(payload, chunk_size)
    assert [(leaf.offset, bytes(leaf.data), leaf.cid) for leaf in leaves] \
        == expected
    assert root.cid == expected_root
    assert list(root.links) == [cid for _, _, cid in expected]


def _raise_once_on(monkeypatch, piece):
    """Patch the CID the blocks take so that hashing ``piece`` raises
    once; returns the list of threads it raised on."""
    raised_on = []

    def compute(data):
        if not raised_on and bytes(data) == piece:
            raised_on.append(threading.current_thread())
            raise RuntimeError("hash failed")
        return compute_cid(data)

    monkeypatch.setattr(block_module, "compute_cid", compute)
    return raised_on


@pytest.mark.parametrize("leaf, lane", [(3, "helper"), (0, "caller")])
def test_an_exception_on_either_lane_is_raised_in_the_caller(
        monkeypatch, leaf, lane):
    chunk = 32
    payload = random.Random(leaf).randbytes(5 * chunk + 1)
    raised_on = _raise_once_on(
        monkeypatch, payload[leaf * chunk:(leaf + 1) * chunk])
    with pytest.raises(RuntimeError, match="hash failed"):
        chunk_object(payload, chunk)
    assert (raised_on[0] is threading.main_thread()) == (lane == "caller")
    # The lanes survive: the next call hashes every leaf again.
    root, leaves = chunk_object(payload, chunk)
    assert root.cid == _reference_chunks(payload, chunk)[1]
    assert len(leaves) == 6


def test_concurrent_callers_get_their_own_leaves():
    """Six threads on two cores chunk distinct objects at once through
    the one helper lane: each answer reaches the call that asked."""
    chunk = 16
    payloads = [random.Random(seed).randbytes(5 * chunk + 1)
                for seed in range(6)]
    expected = [_reference_chunks(payload, chunk)[1] for payload in payloads]
    wrong = []

    def work(index):
        for _ in range(100):
            if chunk_object(payloads[index], chunk)[0].cid != expected[index]:
                wrong.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(len(payloads))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
