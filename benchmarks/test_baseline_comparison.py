"""Sec. I architecture comparison: bytes moved and stored per iteration.

The paper motivates its design by the blockchain approach's costs
("miners have to store all updates into the blockchain, and those who
serve as aggregators have to download and aggregate every single
update") and the centralized server's trust/bottleneck role.  This
benchmark quantifies one training iteration across all four
architectures on identical workloads.
"""

from _helpers import save_table

from repro.analysis import format_table
from repro.analysis.figures import marker_datasets
from repro.baselines import (
    BlockchainFLSession,
    CentralizedSession,
    DirectIPLSSession,
)
from repro.core import FLSession, ProtocolConfig
from repro.ml import SyntheticModel
from repro.net import NetworkProfile

NUM_TRAINERS = 16
MODEL_PARAMS = 130_000  # ~1 MB model


def config(**overrides):
    defaults = dict(
        num_partitions=4,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=0.25,
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


def factory():
    return SyntheticModel(MODEL_PARAMS)


def test_baseline_comparison(benchmark):
    outcome = {}

    def experiment():
        shards = marker_datasets(NUM_TRAINERS)
        results = {}

        ours = FLSession(
            config(merge_and_download=True, providers_per_aggregator=4),
            factory, shards,
            network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
        )
        metrics = ours.run_iteration()
        results["ours (merge)"] = {
            "delay": metrics.end_to_end_delay,
            "bytes": ours.testbed.network.bytes_delivered,
            "storage": sum(n.store.total_bytes for n in ours.nodes),
        }

        naive = FLSession(
            config(merge_and_download=False),
            factory, shards,
            network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
        )
        metrics = naive.run_iteration()
        results["ours (naive)"] = {
            "delay": metrics.end_to_end_delay,
            "bytes": naive.testbed.network.bytes_delivered,
            "storage": sum(n.store.total_bytes for n in naive.nodes),
        }

        direct = DirectIPLSSession(config(), factory, shards,
                                   bandwidth_mbps=10.0)
        metrics = direct.run_iteration()
        results["IPLS (direct)"] = {
            "delay": metrics.end_to_end_delay,
            "bytes": direct.testbed.network.bytes_delivered,
            "storage": 0.0,
        }

        central = CentralizedSession(config(), factory, shards,
                                     bandwidth_mbps=10.0)
        metrics = central.run_iteration()
        results["centralized"] = {
            "delay": metrics.end_to_end_delay,
            "bytes": central.testbed.network.bytes_delivered,
            "storage": 0.0,
        }

        bcfl = BlockchainFLSession(config(), factory, shards,
                                   num_miners=4, bandwidth_mbps=10.0)
        metrics = bcfl.run_iteration()
        results["blockchain FL"] = {
            "delay": metrics.end_to_end_delay,
            "bytes": bcfl.network.bytes_delivered,
            "storage": bcfl.total_miner_storage(),
        }
        outcome["results"] = results

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    results = outcome["results"]

    save_table("baseline_comparison", format_table(
        ["architecture", "update delay (s)", "network MB", "storage MB"],
        [[name, row["delay"], row["bytes"] / 1e6, row["storage"] / 1e6]
         for name, row in results.items()],
        title="One iteration, 16 trainers, ~1MB model, 10 Mbps "
              "(storage = bytes resident after the round)",
    ))

    # The paper's qualitative claims:
    # blockchain FL replicates every update on every miner -> storage and
    # traffic far beyond ours.
    assert (results["blockchain FL"]["storage"]
            > 3 * results["ours (merge)"]["storage"])
    assert (results["blockchain FL"]["bytes"]
            > 1.5 * results["ours (merge)"]["bytes"])
    # Merge-and-download beats naive indirect on the update delay.
    assert (results["ours (merge)"]["delay"]
            < results["ours (naive)"]["delay"])
    # The centralized server serializes everything through one NIC; the
    # partitioned decentralized design is faster at equal bandwidth.
    assert (results["ours (merge)"]["delay"]
            < results["centralized"]["delay"])
