"""Model segmentation and the gradient-partition wire format.

IPLS "segment[s] the parameters vector of the machine learning model into
smaller partitions, which are then separately aggregated by different
participants".  A :class:`ModelPartitioner` maps a flat vector to
near-equal contiguous slices and back.

The wire format of one uploaded partition is a float64 array of the
partition's values with one extra trailing element: the averaging counter
the trainers initialize to 1 (Algorithm 1 line 14) and aggregators sum
along with the data, so that downloaders can divide by it (line 21).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..ipfs.merge import MergeError, sum_f64


class ModelPartitioner:
    """Splits a ``num_params`` vector into ``num_partitions`` slices."""

    def __init__(self, num_params: int, num_partitions: int):
        if num_params < 1:
            raise ValueError("num_params must be >= 1")
        if not 1 <= num_partitions <= num_params:
            raise ValueError(
                "num_partitions must be between 1 and num_params"
            )
        self.num_params = num_params
        self.num_partitions = num_partitions
        base, extra = divmod(num_params, num_partitions)
        self._bounds: List[Tuple[int, int]] = []
        start = 0
        for index in range(num_partitions):
            length = base + (1 if index < extra else 0)
            self._bounds.append((start, start + length))
            start += length

    def bounds(self, partition_id: int) -> Tuple[int, int]:
        """[start, end) slice of partition ``partition_id``."""
        return self._bounds[partition_id]

    def partition_size(self, partition_id: int) -> int:
        start, end = self._bounds[partition_id]
        return end - start

    def split(self, vector: np.ndarray) -> List[np.ndarray]:
        """Slice a flat vector into its partitions: read-only views of
        ``vector`` (no copy; encoding a partition is what copies it)."""
        vector = np.asarray(vector, dtype=np.float64).ravel().view()
        vector.flags.writeable = False
        if vector.shape[0] != self.num_params:
            raise ValueError(
                f"expected {self.num_params} values, got {vector.shape[0]}"
            )
        return [vector[start:end] for start, end in self._bounds]

    def join(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate partitions back into the flat vector."""
        if len(parts) != self.num_partitions:
            raise ValueError(
                f"expected {self.num_partitions} parts, got {len(parts)}"
            )
        for index, part in enumerate(parts):
            if part.shape[0] != self.partition_size(index):
                raise ValueError(
                    f"partition {index} has wrong length {part.shape[0]}"
                )
        return np.concatenate([np.asarray(p, dtype=np.float64)
                               for p in parts])


def encode_partition(values: np.ndarray, counter: float = 1.0) -> bytes:
    """Wire-encode one partition: ``values || counter`` as float64."""
    array = np.ascontiguousarray(values, dtype=np.float64).ravel()
    return b"".join((array, np.float64(counter).tobytes()))


def _partition_view(blob: bytes) -> np.ndarray:
    """``values || counter`` of an encoded partition as a read-only view
    of ``blob`` (no copy: the hot path's :func:`decode_partition`)."""
    if len(blob) % 8 != 0 or len(blob) < 16:
        raise ValueError("partition blob must hold >= 2 float64 values")
    return np.frombuffer(blob, dtype=np.float64)


def decode_partition(blob: bytes) -> Tuple[np.ndarray, float]:
    """Inverse of :func:`encode_partition`; returns (values, counter)."""
    array = _partition_view(blob)
    return array[:-1].copy(), float(array[-1])


def sum_encoded_partitions(blobs: Sequence[bytes]) -> bytes:
    """Element-wise sum of encoded partitions (counters add up too).

    This is the aggregator's summation and also exactly what the
    merge-and-download provider computes: :func:`~repro.ipfs.merge.sum_f64`.
    """
    try:
        return sum_f64(blobs)
    except MergeError as exc:
        raise ValueError(str(exc)) from None
