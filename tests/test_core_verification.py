"""Tests for the PartitionCommitter and commitment cost model."""

import numpy as np
import pytest

from repro.core import (
    CommitmentCostModel,
    PartitionCommitter,
    decode_partition,
    sum_encoded_partitions,
)
from repro.crypto import Commitment
from repro.crypto.curves import SECP256K1


@pytest.fixture(scope="module")
def committer():
    return PartitionCommitter(partition_len=6, curve="secp256k1",
                              fractional_bits=16)


def test_encode_and_commit_roundtrip(committer):
    values = np.array([0.5, -0.25, 1.0, 0.0, 2.0, -1.5])
    blob, commitment = committer.encode_and_commit(values)
    decoded, counter = decode_partition(blob)
    np.testing.assert_array_equal(decoded, values)  # dyadic: exact
    assert counter == 1.0
    assert committer.verify_blob(blob, commitment)


def test_quantization_applied_before_commit(committer):
    """Non-dyadic values are quantized so blob and commitment agree."""
    values = np.array([0.1, 0.2, 0.3, -0.1, -0.2, -0.3])
    blob, commitment = committer.encode_and_commit(values)
    decoded, _ = decode_partition(blob)
    assert np.max(np.abs(decoded - values)) <= 2.0 ** -16
    assert committer.verify_blob(blob, commitment)


def test_verify_rejects_tampered_blob(committer):
    values = np.linspace(-1, 1, 6)
    blob, commitment = committer.encode_and_commit(values)
    decoded, counter = decode_partition(blob)
    decoded[0] += 2.0 ** -16  # one quantization step: must be caught
    from repro.core import encode_partition
    assert not committer.verify_blob(
        encode_partition(decoded, counter), commitment
    )


def test_subquantum_tamper_is_equivalent(committer):
    """Perturbations below the quantization step commit identically —
    the commitment binds the quantized value, which is what is uploaded."""
    values = np.linspace(-1, 1, 6)
    blob, commitment = committer.encode_and_commit(values)
    decoded, counter = decode_partition(blob)
    decoded[0] += 2.0 ** -40  # far below one step of 2^-16
    from repro.core import encode_partition
    assert committer.verify_blob(
        encode_partition(decoded, counter), commitment
    )


def test_aggregate_verifies_against_product(committer):
    """The protocol's central equation: sum of blobs opens the product of
    commitments — including the averaging counters."""
    rng = np.random.default_rng(5)
    blobs, commitments = [], []
    for _ in range(4):
        blob, commitment = committer.encode_and_commit(
            rng.normal(size=6)
        )
        blobs.append(blob)
        commitments.append(commitment)
    aggregate = sum_encoded_partitions(blobs)
    product = Commitment.product(commitments, committer.curve)
    assert committer.verify_blob(aggregate, product)
    _, counter = decode_partition(aggregate)
    assert counter == 4.0


def test_dropped_gradient_detected(committer):
    """Omitting one trainer's blob breaks the product check."""
    rng = np.random.default_rng(6)
    blobs, commitments = [], []
    for _ in range(3):
        blob, commitment = committer.encode_and_commit(rng.normal(size=6))
        blobs.append(blob)
        commitments.append(commitment)
    product = Commitment.product(commitments, committer.curve)
    partial = sum_encoded_partitions(blobs[:2])  # one dropped
    assert not committer.verify_blob(partial, product)


def test_altered_aggregate_detected(committer):
    rng = np.random.default_rng(7)
    blobs, commitments = [], []
    for _ in range(3):
        blob, commitment = committer.encode_and_commit(rng.normal(size=6))
        blobs.append(blob)
        commitments.append(commitment)
    product = Commitment.product(commitments, committer.curve)
    aggregate = sum_encoded_partitions(blobs)
    values, counter = decode_partition(aggregate)
    altered = values.copy()
    altered[2] += 2.0 ** -16  # smallest representable perturbation
    from repro.core import encode_partition
    assert not committer.verify_blob(
        encode_partition(altered, counter), product
    )


def test_commitment_of_blob_deterministic(committer):
    blob, commitment = committer.encode_and_commit(np.ones(6))
    assert committer.commitment_of_blob(blob) == commitment


def test_committer_length_validation(committer):
    with pytest.raises(ValueError):
        committer.encode_and_commit(np.zeros(5))
    with pytest.raises(ValueError):
        PartitionCommitter(partition_len=0)


def test_committer_both_curves():
    for curve in ("secp256k1", "secp256r1"):
        committer = PartitionCommitter(partition_len=3, curve=curve)
        blob, commitment = committer.encode_and_commit(
            np.array([1.0, -1.0, 0.5])
        )
        assert committer.verify_blob(blob, commitment)


def test_counter_is_committed(committer):
    """The averaging counter participates in the commitment: changing it
    must be detected (otherwise an aggregator could skew the average)."""
    blob, commitment = committer.encode_and_commit(np.ones(6))
    values, _ = decode_partition(blob)
    from repro.core import encode_partition
    forged = encode_partition(values, counter=2.0)
    assert not committer.verify_blob(forged, commitment)


# -- cost model ----------------------------------------------------------------


def test_cost_model_disabled():
    model = CommitmentCostModel(None)
    assert model.commit_delay(10**6) == 0.0
    assert model.verify_delay(10**6) == 0.0


def test_cost_model_linear():
    model = CommitmentCostModel(seconds_per_param=2e-3)
    assert model.commit_delay(1000) == pytest.approx(2.0)
    assert model.verify_delay(500) == pytest.approx(1.0)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CommitmentCostModel(seconds_per_param=-1.0)
