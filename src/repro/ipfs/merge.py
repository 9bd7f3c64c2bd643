"""Merge-and-download: provider-side pre-aggregation (paper Sec. III-E).

Instead of downloading every gradient partition stored on one IPFS node,
an aggregator sends the node the set of CIDs and asks it to
"pre-aggregate the gradient partitions for those hashes and send only the
aggregated result".  The node applies a *merger* — a named, registered
reduction over decoded block payloads — and returns a single merged blob.

Mergers are identified by name on the wire so that the simulated provider
and the aggregator agree on semantics.  The FL protocol registers the
float64 vector summation used for gradients (see
:mod:`repro.core.partition`); this module ships a generic implementation
for float64 arrays with and without the trailing averaging counter.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from .errors import MergeError

__all__ = ["register_merger", "get_merger", "sum_f64"]

#: name -> reduction over a list of byte strings, returning bytes.
_MERGERS: Dict[str, Callable[[List[bytes]], bytes]] = {}


def register_merger(name: str,
                    fn: Callable[[List[bytes]], bytes],
                    replace: bool = False) -> None:
    """Register a named reduction usable in merge-and-download requests."""
    if name in _MERGERS and not replace:
        raise ValueError(f"merger {name!r} already registered")
    _MERGERS[name] = fn


def get_merger(name: str) -> Callable[[List[bytes]], bytes]:
    """Resolve a registered merger; raises :class:`MergeError` if unknown."""
    try:
        return _MERGERS[name]
    except KeyError:
        raise MergeError(f"unknown merger {name!r}") from None


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


register_merger("sum-f64", sum_f64)
