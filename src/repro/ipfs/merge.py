"""Merge-and-download: provider-side pre-aggregation (paper Sec. III-E).

Instead of downloading every gradient partition stored on one IPFS node,
an aggregator sends the node the set of CIDs and asks it to
"pre-aggregate the gradient partitions for those hashes and send only the
aggregated result".  The node sums the decoded float64 payloads
(:func:`sum_f64`, the protocol's one reduction: the trailing averaging
counter sums like any other element) and returns a single merged blob.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import MergeError


def sum_f64(blobs: Sequence[bytes]) -> bytes:
    """Element-wise sum of equal-length float64 vectors.

    This is the aggregation the protocol performs on gradient partitions;
    the trailing averaging counter the trainers append (Algorithm 1 line
    14) is a regular vector element and sums like any other, which is
    exactly what makes the merged result usable for averaging.

    The one summation in the tree (``sum_encoded_partitions`` is this
    function): one accumulator that starts from zero (so a lone ``-0.0``
    comes out ``0.0``) and takes each blob in the order given — that
    order is the float contract — with no k × n stack in between.
    """
    if not blobs:
        raise MergeError("cannot merge zero blocks")
    total = None
    for blob in blobs:
        if len(blob) % 8 != 0:
            raise MergeError("blob length is not a multiple of 8 (float64)")
        vector = np.frombuffer(blob, dtype=np.float64)
        if total is None:
            total = vector + 0.0
        elif vector.shape != total.shape:
            raise MergeError(
                f"length mismatch: {vector.shape[0]} != {total.shape[0]}"
            )
        else:
            total += vector
    return total.tobytes()

