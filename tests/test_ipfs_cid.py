"""Unit and property tests for CIDs, blocks and chunking."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipfs import (
    Block,
    CID,
    chunk_object,
    compute_cid,
    parse_manifest,
)
from repro.ipfs.block import join_leaves


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
