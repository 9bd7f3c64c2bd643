"""The paper's three figures (Sec. V), each built in one place.

:func:`fig1_session` and :func:`fig2_session` build one point of a
sweep from its x-value.  :func:`fig1_table`, :func:`fig2_table` and
:func:`fig3_table` return a figure's rows and the table that
``benchmarks/results/`` holds and ``python -m repro.cli reproduce``
prints; the benchmarks assert the rows' shape.  A Fig. 1 or Fig. 2
round ends within 40 simulated seconds: t_train / t_sync never bind.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..baselines import DirectIPLSSession
from ..core import FLSession, PartitionCommitter, ProtocolConfig
from ..crypto import PedersenParams, curve_by_name, sha256
from ..ml import Dataset, SyntheticModel
from ..net import NetworkProfile
from ..obs import WallClock
from .delays import aggregator_download_bytes
from .results import format_table

#: Fig. 1's x-axis, |P_ij|; its largest value is the IPFS node count.
FIG1_PROVIDERS = (1, 2, 4, 8, 16)
FIG3_SIZES = (1_000, 4_000, 16_000)
#: Fig. 3's last row extrapolates to this ("models like MobileNetV1").
EXTRAPOLATION_PARAMS = 5_000_000
#: Pedersen series: the quantised gradient a trainer commits to, and
#: full-width ``Z_n`` scalars (the paper's exponents).
FIG3_SERIES = ("secp256k1_s", "secp256r1_s",
               "secp256k1_full_s", "secp256r1_full_s")

_TRAINERS = 16
_FIG1_MODEL = functools.partial(SyntheticModel, 162_500)  # ~1.3 MB
_FIG2_PARTITION_PARAMS = 137_500  # ~1.1 MB of float64 each


def marker_datasets(count: int) -> List[Dataset]:
    """Placeholder shards for delay experiments: a distinct marker per
    shard gives each trainer distinct ``SyntheticModel`` gradients."""
    return [Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
            for index in range(count)]


def _fig1_config(providers: int) -> ProtocolConfig:
    """One partition, merge-and-download over ``providers`` (0: none)."""
    return ProtocolConfig(num_partitions=1, t_train=600.0, t_sync=1200.0,
                          merge_and_download=providers > 0,
                          providers_per_aggregator=providers,
                          update_mode="gradient", poll_interval=0.25)


def fig1_session(providers: int,
                 aggregator_bandwidth_mbps=None) -> FLSession:
    """16 trainers, one 1.3 MB partition, 10 Mbps, merge-and-download
    over ``providers`` IPFS providers per aggregator."""
    return FLSession(
        _fig1_config(providers), _FIG1_MODEL, marker_datasets(_TRAINERS),
        network=NetworkProfile(
            num_ipfs_nodes=FIG1_PROVIDERS[-1], bandwidth_mbps=10.0,
            aggregator_bandwidth_mbps=aggregator_bandwidth_mbps))


def fig2_session(aggregators: int) -> FLSession:
    """16 trainers, 8 IPFS nodes, 4 partitions of 1.1 MB, 20 Mbps, no
    merge, ``aggregators`` aggregators per partition."""
    config = ProtocolConfig(
        num_partitions=4, aggregators_per_partition=aggregators,
        t_train=600.0, t_sync=1200.0, takeover_grace=60.0,
        update_mode="gradient", poll_interval=0.25)
    return FLSession(
        config, functools.partial(SyntheticModel, 4 * _FIG2_PARTITION_PARAMS),
        marker_datasets(_TRAINERS),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=20.0))


def _fig1_sessions():
    """The provider sweep, then the "8 (naive)" bar (8 IPFS nodes, no
    merge) and the "8 (direct)" bar (IPLS)."""
    for providers in FIG1_PROVIDERS:
        yield providers, fig1_session(providers)
    yield "8 (naive)", FLSession(
        _fig1_config(0), _FIG1_MODEL, marker_datasets(_TRAINERS),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0))
    yield "8 (direct)", DirectIPLSSession(
        _fig1_config(0), _FIG1_MODEL, marker_datasets(_TRAINERS),
        bandwidth_mbps=10.0)


def fig1_table() -> Tuple[List[Dict], str]:
    rows = []
    for label, session in _fig1_sessions():
        metrics = session.run_iteration()
        rows.append({  # in the table's column order
            "providers": label,
            "aggregation_delay_s": metrics.aggregation_delay,
            "upload_delay_s": metrics.mean_upload_delay,
            "collection_s": metrics.collection_time,
            "end_to_end_s": metrics.end_to_end_delay,
        })
    return rows, format_table(
        ["providers", "agg delay (s)", "upload delay (s)",
         "collection (s)", "end-to-end (s)"],
        [list(row.values()) for row in rows],
        title="Fig. 1 — delays vs number of IPFS providers "
              "(16 trainers, 1.3MB partition, 10 Mbps)")


def fig2_table() -> Tuple[List[Dict], str]:
    rows = []
    for count in (1, 2, 4):
        metrics = fig2_session(count).run_iteration()
        rows.append({
            "aggregators_per_partition": count,
            "grad_agg_delay_s": metrics.aggregation_delay,
            "sync_delay_s": metrics.sync_delay or 0.0,
            "total_agg_delay_s": metrics.total_aggregation_delay,
            "bytes_per_aggregator": metrics.mean_bytes_received,
            "predicted_bytes": aggregator_download_bytes(
                _TRAINERS // count, count, (_FIG2_PARTITION_PARAMS + 1) * 8),
            "completed": len(metrics.trainers_completed),
        })
    return rows, format_table(
        ["|A_i|", "grad agg (s)", "sync (s)", "total (s)",
         "MB/aggregator", "predicted MB"],
        [[row["aggregators_per_partition"], row["grad_agg_delay_s"],
          row["sync_delay_s"], row["total_agg_delay_s"],
          row["bytes_per_aggregator"] / 1e6, row["predicted_bytes"] / 1e6]
         for row in rows],
        title="Fig. 2 — delays and data received vs aggregators per "
              "partition (16 trainers, 4x1.1MB partitions, 20 Mbps)")


def _timed(clock: WallClock, function, *args) -> float:
    started = clock.seconds()
    function(*args)
    return clock.seconds() - started


def fig3_table(sizes: Sequence[int],
               clock: WallClock) -> Tuple[List[Dict], str]:
    """SHA-256 and the four Pedersen series, timed once a size."""
    rng = np.random.default_rng(0)
    rows = []
    for size in sizes:
        vector = rng.normal(size=size)
        row = {"params": size,
               "sha256_s": _timed(clock, sha256, vector.tobytes())}
        for curve in ("secp256k1", "secp256r1"):
            committer = PartitionCommitter(partition_len=size, curve=curve,
                                           fractional_bits=16)
            row[f"{curve}_s"] = _timed(clock, committer.encode_and_commit,
                                       vector)
            params = PedersenParams.setup(curve_by_name(curve), size)
            scalar_rng = random.Random(size)
            scalars = [scalar_rng.randrange(params.curve.n)
                       for _ in range(size)]
            row[f"{curve}_full_s"] = _timed(clock, params.commit, scalars)
        rows.append(row)
    return rows, format_table(
        ["params", "sha256 (s)", "k1 gradient (s)", "r1 gradient (s)",
         "k1 full-width (s)", "r1 full-width (s)", "gradient/hash ratio"],
        [[row["params"], row["sha256_s"]]
         + [row[name] for name in FIG3_SERIES]
         + [row["secp256k1_s"] / max(row["sha256_s"], 1e-9)]
         for row in rows]
        + [[EXTRAPOLATION_PARAMS, None]
           + [rows[-1][name] / rows[-1]["params"] * EXTRAPOLATION_PARAMS
              for name in FIG3_SERIES] + [None]],
        title="Fig. 3 — commitment vs hash cost by model size "
              "(last row: linear extrapolation)")
