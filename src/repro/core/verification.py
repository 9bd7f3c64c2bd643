"""Verifiable aggregation: binding partitions to Pedersen commitments.

Implements Sec. IV: trainers commit to each (quantized) gradient partition
including its averaging counter; the directory accumulates commitment
products per partition (and per aggregator's trainer subset); aggregates
are accepted only if their decoded values open the accumulated commitment.
A rejected aggregate is classified where it is judged
(:func:`classify_rejection`), from the same commitment algebra.

Quantization matters: commitments live over Z_n, so trainers *upload the
quantized values they committed to*.  Sums of fixed-point float64 values
are exact, so the aggregated bytes decode to exactly the sum of the
committed scalars and the homomorphic check is equality, not tolerance.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

from ..crypto import (
    Commitment,
    CurveParams,
    FixedPointCodec,
    PedersenParams,
    curve_by_name,
)
from .partition import decode_partition, encode_partition

#: The subset search is exponential; above this many contributions the
#: classifier reports counts only (the honest contributor counts of every
#: experiment in the paper are well below it).
MAX_BLAME_SEARCH = 16


class PartitionCommitter:
    """Commitment machinery for partitions of a fixed length."""

    def __init__(self, partition_len: int, curve: str = "secp256k1",
                 fractional_bits: int = 16):
        if partition_len < 1:
            raise ValueError("partition_len must be >= 1")
        self.partition_len = partition_len
        self.curve: CurveParams = curve_by_name(curve)
        self.codec = FixedPointCodec(
            order=self.curve.n, fractional_bits=fractional_bits
        )
        # One extra generator for the appended averaging counter.
        self.params = PedersenParams.setup(self.curve, partition_len + 1)

    # -- trainer side -------------------------------------------------------------

    def encode_and_commit(
        self, values: np.ndarray
    ) -> Tuple[bytes, Commitment]:
        """Quantize, wire-encode and commit one trainer's partition.

        Returns ``(blob, commitment)`` where the commitment binds exactly
        the values carried by ``blob``, including the averaging counter
        of one contribution.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.shape[0] != self.partition_len:
            raise ValueError(
                f"expected {self.partition_len} values, got {values.shape[0]}"
            )
        quantized = self.codec.quantize(values)
        blob = encode_partition(quantized, 1.0)
        scalars = self.codec.encode(quantized) + [
            self.codec.encode_value(1.0)
        ]
        return blob, self.params.commit(scalars)

    # -- verifier side ----------------------------------------------------------------

    def open_blob(self, blob: bytes) -> Tuple[Commitment, float]:
        """Recompute ``(commitment, averaging counter)`` of a blob.

        One decode pass serves both the equality check and the audit
        trail: the counter is the number of gradients summed into the
        blob, which is exactly the signal forensics needs to tell a
        dropped/lazy aggregate (counter < contributors) from an altered
        one (counter intact, commitment mismatched).
        """
        values, counter = decode_partition(blob)
        scalars = self.codec.encode(values) + [
            self.codec.encode_value(counter)
        ]
        return self.params.commit(scalars), float(counter)

    def commitment_of_blob(self, blob: bytes) -> Commitment:
        """Recompute the commitment that binds an encoded partition."""
        commitment, _counter = self.open_blob(blob)
        return commitment

    def verify_blob(self, blob: bytes, expected: Commitment) -> bool:
        """Does ``blob`` open ``expected``?  The directory's check on
        global updates; also the aggregator's check on peers' partial
        updates and on merged downloads."""
        return self.commitment_of_blob(blob) == expected


class CommitmentCostModel:
    """Simulated-time cost of committing at model scale.

    Real commitments are always computed (the protocol's checks are
    genuine); this model additionally charges simulated seconds so runs
    with millions of parameters exhibit the Fig. 3 bottleneck without
    paying the wall-clock cost of a full-size multi-exponentiation.
    """

    def __init__(self, seconds_per_param: Optional[float]):
        if seconds_per_param is not None and seconds_per_param < 0:
            raise ValueError("seconds_per_param must be non-negative")
        self.seconds_per_param = seconds_per_param

    def commit_delay(self, num_params: int) -> float:
        """Simulated seconds to charge for committing ``num_params`` values."""
        if self.seconds_per_param is None:
            return 0.0
        return self.seconds_per_param * num_params

    def verify_delay(self, num_params: int) -> float:
        """Verification recomputes the commitment: same cost shape."""
        return self.commit_delay(num_params)


def classify_rejection(
    iteration: int,
    reason: str,
    contributions: Sequence[Tuple[str, Commitment, str]],
    previous: Optional[Tuple[Commitment, int]],
    claimed: Optional[Commitment],
    claimed_counter: float,
) -> dict:
    """Why a global update of ``iteration`` was rejected, from the
    commitment algebra alone (no access to the aggregator's internals).

    ``contributions`` are the partition's accumulated gradients as
    ``(uploader, commitment, cid)``, name-sorted; ``previous`` is the
    product and count accumulated at ``iteration - 1`` (None if nothing
    was);
    ``claimed`` is the commitment the update opened to (None when it was
    never opened) and ``claimed_counter`` its averaging counter ``k``.
    The first rule that holds classifies, ``n`` being the contribution
    count:

    ``replayed``
        the claim is the previous round's product — a stale aggregate
        (checked first: a replayed counter can equal ``n``);
    ``altered``
        ``k == n`` but the claim does not open: values were perturbed;
    ``lazy`` / ``dropped``
        ``1 <= k < n``: the ``k``-subset whose product is the claim
        (the first in name order) is kept and its complement dropped;
        ``k == 1`` is the lazy signature.  With no such subset (or more
        than :data:`MAX_BLAME_SEARCH` contributions) it is ``dropped``
        and names nobody;
    ``unknown``
        anything else (a counter outside ``[1, n]``, or no claim).

    Returns the blame fields of a
    :class:`~repro.obs.events.VerificationFailed`: ``classification``,
    ``dropped_trainers``, ``kept_trainers``, ``dropped_cids``,
    ``expected_count``, ``claimed_counter`` and ``detail``.
    """
    if claimed is None:
        return {"classification": "unknown",
                "detail": f"{reason} (no commitment record to classify from)"}
    n = len(contributions)
    names = tuple(name for name, _, _ in contributions)
    blame = {"classification": "unknown", "expected_count": n,
             "claimed_counter": claimed_counter}
    if previous is not None and claimed == previous[0]:
        blame.update(
            classification="replayed", dropped_trainers=names,
            dropped_cids=tuple(cid for _, _, cid in contributions),
            detail=(f"claimed aggregate opens iteration {iteration - 1}'s "
                    f"accumulated commitment ({previous[1]} stale "
                    f"contributions)"))
        return blame
    k = int(round(claimed_counter))
    if k == n and n > 0:
        blame.update(
            classification="altered", kept_trainers=names,
            detail=(f"counter claims all {n} contributions but the "
                    f"commitment does not open: values were altered"))
        return blame
    if not 1 <= k < n:
        blame["detail"] = (f"counter {claimed_counter:g} outside [1, {n}]: "
                           f"unclassifiable")
        return blame
    kept = _opening_subset(contributions, k, claimed)
    if kept is None:
        blame.update(
            classification="dropped",
            detail=(f"counter shows {k} of {n} contributions but no "
                    f"{k}-subset opens the commitment (dropped and "
                    f"possibly also altered)"))
        return blame
    dropped = [c for c in contributions if c not in kept]
    blame.update(
        classification="lazy" if k == 1 else "dropped",
        kept_trainers=tuple(name for name, _, _ in kept),
        dropped_trainers=tuple(name for name, _, _ in dropped),
        dropped_cids=tuple(cid for _, _, cid in dropped),
        detail=(f"aggregate provably sums exactly {k} of {n} "
                f"contributions; omitted: "
                f"{', '.join(name for name, _, _ in dropped)}"))
    return blame


def _opening_subset(contributions, k: int, target: Commitment):
    """The first ``k``-subset of ``contributions`` (in their order) whose
    commitment product is ``target``, or None.  Ties (identical
    commitments) resolve to the name-first subset, as the drop and lazy
    behaviours keep the name-first trainers."""
    if len(contributions) > MAX_BLAME_SEARCH:
        return None
    for subset in itertools.combinations(contributions, k):
        product = subset[0][1]
        for _, commitment, _ in subset[1:]:
            product = product.combine(commitment)
        if product == target:
            return subset
    return None
