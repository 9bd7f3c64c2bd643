"""Layer probes: the unit cost of each layer's public operations.

Run as ``python probes.py REPEATS`` in a fresh interpreter; prints one
JSON object ``{metric: {"samples", "unit"}}`` on its last line.  Every
probe times a public function directly, ``REPEATS`` times; the caller
reports the median and quartiles.  The crypto probe doubles as the negative control of the
verifiable workload: a blob with one flipped value must fail
``verify_blob``, so no later speed-up can pass by skipping the check.
"""

import json
import sys
import time

import _bootstrap  # noqa: F401

import numpy as np

from repro.core.partition import decode_partition, encode_partition
from repro.core.verification import PartitionCommitter
from repro.crypto import PedersenParams, curve_by_name
from repro.ipfs import DHT, IPFSNode
from repro.ml import compute_gradient, make_classification
from repro.net import build_testbed
from repro.net.bandwidth import FlowScheduler, Link
from repro.obs import AnomalyWatchdog, CountersRegistry, EventBus, \
    FlightRecorder, InvariantMonitors, MetricsRegistry
from repro.obs.events import TransferCompleted
from repro.sim import Simulator

import workloads

#: The verifiable workload's partition length (4 034 params / 2).
PARTITION_LEN = 2017
BLOB_BYTES = 1_300_000
SETUP_GENERATORS = 64


def _seconds(operation, repeats: int) -> list:
    samples = []
    for index in range(repeats):
        started = time.perf_counter()
        operation(index)
        samples.append(time.perf_counter() - started)
    return samples


def _sim(repeats: int) -> dict:
    def ring(sim):
        while True:
            yield sim.timeout(1.0)

    sim = Simulator()
    for _ in range(64):
        sim.process(ring(sim))
    steps = 4000

    def step(_):
        for _ in range(steps):
            sim.step()

    def timeout_cancel(_):
        for _ in range(steps):
            sim.timeout(5.0).cancel()

    return {
        "sim.step_us":
            ([s / steps * 1e6 for s in _seconds(step, repeats)], "us"),
        "sim.timeout_cancel_us":
            ([s / steps * 1e6 for s in _seconds(timeout_cancel, repeats)],
             "us"),
    }


def _net_flow(flows: int, repeats: int) -> dict:
    """Start ``flows`` flows of distinct sizes over one shared hub link
    (one max-min component) and run them all to completion: every start
    and every finish re-allocates the component."""
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    hub = Link("hub/down", capacity=1e6 * flows)
    spokes = [Link(f"spoke-{i}/up", capacity=1e6) for i in range(flows)]

    def run(_):
        done = [scheduler.start_flow((spoke, hub), 1e5 * (index + 1))
                for index, spoke in enumerate(spokes)]
        sim.run()
        if not all(event.processed for event in done):
            raise RuntimeError("flow probe: a flow never completed")

    return {f"net.flow_us_n{flows}":
            ([s / flows * 1e6 for s in _seconds(run, repeats)], "us")}


def _ipfs(repeats: int) -> dict:
    testbed = build_testbed(num_trainers=1, num_aggregators=1,
                            num_ipfs_nodes=1)
    node = IPFSNode(testbed.sim, testbed.transport, DHT(testbed.sim),
                    testbed.ipfs_names[0])
    rng = np.random.default_rng(0)
    blobs = [rng.bytes(BLOB_BYTES) for _ in range(repeats)]
    cids = [None] * repeats

    def store(index):
        cids[index] = node.store_object(blobs[index])

    def load(index):
        if node.load_object(cids[index]) != blobs[index]:
            raise RuntimeError("ipfs probe: load_object returned other bytes")

    megabytes = BLOB_BYTES / 1e6
    return {
        "ipfs.store_mb_s":
            ([megabytes / s for s in _seconds(store, repeats)], "MB/s"),
        "ipfs.load_mb_s":
            ([megabytes / s for s in _seconds(load, repeats)], "MB/s"),
    }


def _crypto(repeats: int) -> dict:
    curve = curve_by_name("secp256k1")

    def setup(index):
        # A fresh domain each time: generators are cached per domain.
        PedersenParams.setup(curve, SETUP_GENERATORS,
                             domain=b"perf-probe-%d" % index)

    setup_s = _seconds(setup, repeats)
    committer = PartitionCommitter(PARTITION_LEN)
    values = np.random.default_rng(0).normal(size=PARTITION_LEN)
    opened = {}

    def commit(_):
        opened["blob"], opened["commitment"] = \
            committer.encode_and_commit(values)

    def verify(_):
        if not committer.verify_blob(opened["blob"], opened["commitment"]):
            raise RuntimeError("crypto probe: an honest blob failed to verify")

    commit_s = _seconds(commit, repeats)
    verify_s = _seconds(verify, repeats)
    # Negative control: one value off by one quantum must not verify.
    quantized, counter = decode_partition(opened["blob"])
    quantized[0] += 2.0 ** -16
    if committer.verify_blob(encode_partition(quantized, counter),
                             opened["commitment"]):
        raise RuntimeError("crypto probe: a tampered blob verified")
    other = committer.encode_and_commit(-values)[1]
    inner = 200

    def combine(_):
        for _ in range(inner):
            opened["commitment"].combine(other)

    return {
        "crypto.setup_us_per_gen":
            ([s / SETUP_GENERATORS * 1e6 for s in setup_s], "us"),
        "crypto.commit_us_per_param":
            ([s / PARTITION_LEN * 1e6 for s in commit_s], "us"),
        "crypto.verify_us_per_param":
            ([s / PARTITION_LEN * 1e6 for s in verify_s], "us"),
        "crypto.combine_us":
            ([s / inner * 1e6 for s in _seconds(combine, repeats)], "us"),
    }


def _ml(repeats: int) -> dict:
    model = workloads.mlp_model(0)
    data = make_classification(num_samples=64,
                               num_features=workloads.MLP_FEATURES, seed=0)
    inner = 50

    def gradient(_):
        for _ in range(inner):
            compute_gradient(model, data)

    return {"ml.grad_us":
            ([s / inner * 1e6 for s in _seconds(gradient, repeats)], "us")}


def _obs(repeats: int) -> dict:
    event = TransferCompleted(at=1.0, src="trainer-0", dst="ipfs-0",
                              size=65536.0, started_at=0.5)
    inner = 2000

    def publish_on(bus):
        def publish(_):
            for _ in range(inner):
                if bus.wants(TransferCompleted):
                    bus.publish(event)
        return [s / inner * 1e9 for s in _seconds(publish, repeats)], "ns"

    # The churn_watched stack, in its subscription order.
    watched = EventBus()
    FlightRecorder(watched)
    InvariantMonitors(watched)
    counters = CountersRegistry(watched)
    MetricsRegistry(watched, counters=counters)
    AnomalyWatchdog(watched)
    return {
        "obs.publish_ns_0sub": publish_on(EventBus()),
        "obs.publish_ns_full": publish_on(watched),
    }


def main() -> None:
    repeats = int(sys.argv[1])
    samples = _sim(repeats)
    # 16 flows: every flow is re-allocated on each change; 128 flows:
    # above the small-recompute limit, so component discovery runs first.
    for flows in (16, 128):
        samples.update(_net_flow(flows, repeats))
    for probe in (_ipfs, _crypto, _ml, _obs):
        samples.update(probe(repeats))
    print(json.dumps({name: {"samples": values, "unit": unit}
                      for name, (values, unit) in samples.items()}))


if __name__ == "__main__":
    main()
