"""Coverage for small public APIs not exercised elsewhere."""

import pytest

from repro.net import Message, mbps, megabytes

from tests.util import make_ipfs_world


def test_unit_helpers():
    assert mbps(8) == 1_000_000.0
    assert megabytes(1.3) == 1_300_000.0


def test_message_defaults():
    message = Message(src="a", dst="b", kind="k")
    assert message.payload is None
    assert message.size == 0.0
    assert message.request_id is None


def test_unpin_object_missing_is_noop():
    world = make_ipfs_world(num_nodes=1)
    from repro.ipfs.cid import compute_cid
    world.node(0).unpin_object(compute_cid(b"never stored"))


def test_unknown_message_kind_ignored_by_node():
    world = make_ipfs_world(num_nodes=1, client_names=("client-0",))
    client_endpoint = world.transport.endpoint("client-0")
    client_endpoint.send("ipfs-0", "ipfs.bogus", payload=None, size=10)
    world.sim.run()  # must not crash


def test_point_from_bytes_non_residue_x():
    """An x with no curve point (x^3+7 a non-residue) must be rejected."""
    from repro.crypto.group import Point
    from repro.crypto.curves import SECP256K1
    from repro.crypto.field import legendre_symbol
    x = 2
    while legendre_symbol(
        (x * x * x + SECP256K1.b) % SECP256K1.p, SECP256K1.p
    ) != -1:
        x += 1
    data = b"\x02" + x.to_bytes(32, "big")
    with pytest.raises(ValueError):
        Point.from_bytes(SECP256K1, data)


def test_commitment_cost_model_repr_paths():
    from repro.core.verification import CommitmentCostModel
    model = CommitmentCostModel(1e-6)
    assert model.commit_delay(0) == 0.0
