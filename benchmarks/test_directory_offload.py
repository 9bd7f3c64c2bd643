"""Ablation (paper Sec. VI): minimizing the directory service's load.

Two measurements:

1. **Batch registration** — identical training rounds with per-partition
   registration vs one accumulated-digest message per trainer; compares
   the directory's message count and host bytes.
2. **Map snapshot offload** — resolving a 64-trainer partition map via
   per-poll directory lookups vs one IPFS snapshot fetch; compares bytes
   served by the directory host (which drop to a single CID handout).
"""

from _helpers import dummy_datasets, save_table

from repro.analysis import format_table
from repro.core import (
    Address,
    DirectoryProfile,
    FLSession,
    GRADIENT,
    ProtocolConfig,
    SnapshotPublisher,
    SnapshotReader,
)
from repro.core.directory import DirectoryClient, DirectoryService
from repro.ipfs import DHT, IPFSClient, IPFSNode
from repro.ml import SyntheticModel
from repro.net import Network, NetworkProfile, Transport, mbps
from repro.sim import Simulator

NUM_TRAINERS = 16
NUM_PARTITIONS = 4
MODEL_PARAMS = 20_000


def run_session(batch: bool, processing_delay: float = 0.0):
    config = ProtocolConfig(
        num_partitions=NUM_PARTITIONS,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        batch_registration=batch,
        poll_interval=0.25,
    )
    session = FLSession(
        config,
        lambda: SyntheticModel(MODEL_PARAMS),
        dummy_datasets(NUM_TRAINERS),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
        directory=DirectoryProfile(processing_delay=processing_delay),
    )
    metrics = session.run_iteration()
    host = session.testbed.network.host("directory")
    return {
        "registrations": session.directory.register_count,
        "lookups": session.directory.lookup_count,
        "bytes_in": host.bytes_received,
        "bytes_out": host.bytes_sent,
        "end_to_end": metrics.end_to_end_delay,
    }


def run_snapshot_comparison():
    """Resolve a 64-row partition map with and without snapshot offload."""
    rows_count = 64
    sim = Simulator()
    network = Network(sim)
    names = ["directory", "ipfs-0", "seeder", "reader"]
    for name in names:
        network.add_host(name, up_bandwidth=mbps(50))
    transport = Transport(network)
    for name in names:
        transport.endpoint(name)
    dht = DHT(sim, lookup_delay=0.0)
    node = IPFSNode(sim, transport, dht, "ipfs-0")
    directory = DirectoryService(sim, transport, dht)
    seeder = DirectoryClient("seeder", transport)
    reader = DirectoryClient("reader", transport)
    publisher = SnapshotPublisher(
        directory, IPFSClient("directory", transport, dht), node="ipfs-0"
    )
    snapshot_reader = SnapshotReader(IPFSClient("reader", transport, dht))
    data_cid = node.store_object(b"gradient")
    outcome = {}

    def scenario():
        for index in range(rows_count):
            yield from seeder.register(
                Address(f"t{index}", 0, 0, GRADIENT), data_cid
            )
        host = network.host("directory")
        baseline_out = host.bytes_sent
        # Plain: ten polling clients each pull the full row list once.
        for _ in range(10):
            yield from reader.lookup(0, 0, GRADIENT)
        outcome["lookup_bytes"] = host.bytes_sent - baseline_out

        snapshot_cid = yield from publisher.seal(0, 0)
        baseline_out = host.bytes_sent
        # Offloaded: the directory would hand out only the snapshot CID
        # (64 bytes per query); rows come from the storage node.
        rows = yield from snapshot_reader.fetch(
            snapshot_cid, prefer_nodes=["ipfs-0"]
        )
        outcome["snapshot_directory_bytes"] = (
            host.bytes_sent - baseline_out + 10 * 64
        )
        outcome["rows"] = len(rows)

    proc = sim.process(scenario())
    sim.run_until(proc)
    return outcome


def test_directory_offload(benchmark):
    outcome = {}

    def experiment():
        outcome["plain"] = run_session(batch=False)
        outcome["batched"] = run_session(batch=True)
        # With serialized 20ms-per-request server work, the directory
        # becomes a queueing bottleneck; batching relieves it.
        outcome["plain_loaded"] = run_session(batch=False,
                                              processing_delay=0.02)
        outcome["batched_loaded"] = run_session(batch=True,
                                                processing_delay=0.02)
        outcome["snapshot"] = run_snapshot_comparison()

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    plain, batched, snapshot = (
        outcome["plain"], outcome["batched"], outcome["snapshot"]
    )

    save_table("directory_offload", format_table(
        ["mode", "register msgs", "lookups", "dir bytes in",
         "dir bytes out"],
        [
            ["per-partition", plain["registrations"], plain["lookups"],
             plain["bytes_in"], plain["bytes_out"]],
            ["batched", batched["registrations"], batched["lookups"],
             batched["bytes_in"], batched["bytes_out"]],
        ],
        title="Directory load: per-partition vs batched registration "
              f"({NUM_TRAINERS} trainers x {NUM_PARTITIONS} partitions)",
    ) + "\n\n" + format_table(
        ["map resolution", "directory bytes served"],
        [
            ["10 full lookups", snapshot["lookup_bytes"]],
            ["snapshot offload (10 CID handouts)",
             snapshot["snapshot_directory_bytes"]],
        ],
        title="Map snapshot offload (64-row partition map)",
    ))

    # Batching turns T x P gradient registrations into T messages.
    assert plain["registrations"] >= NUM_TRAINERS * NUM_PARTITIONS
    assert (batched["registrations"]
            <= NUM_TRAINERS + NUM_PARTITIONS + 4)
    # Snapshot offload slashes directory egress by an order of magnitude.
    assert (snapshot["snapshot_directory_bytes"]
            < snapshot["lookup_bytes"] / 10)
    assert snapshot["rows"] == 64

    # Under serialized server load, batching shortens the iteration.
    plain_loaded = outcome["plain_loaded"]
    batched_loaded = outcome["batched_loaded"]
    assert batched_loaded["end_to_end"] < plain_loaded["end_to_end"]
