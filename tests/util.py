"""Shared test fixtures: small emulated IPFS deployments, and the
``cli run`` driver."""

import contextlib
import io
import math
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List

from repro.faults import RetryPolicy
from repro.ipfs import DHT, IPFSClient, IPFSNode, PubSub
from repro.net import Network, Transport, mbps
from repro.obs.profiling import FakeWallClock
from repro.sim import Simulator


class PatientRetry(RetryPolicy):
    """Eight attempts: a backoff that outlasts a test's long outage."""

    max_attempts = 8


def set_ipfs_timeout(session, seconds: float) -> None:
    """Shorten every participant's IPFS request timeout (constant in the
    shipped protocol), so a test's dead fetch fails fast."""
    for participant in session.trainers + session.aggregators:
        participant.ipfs.request_timeout = seconds


def next_event_time(sim: Simulator) -> float:
    """Time of the kernel's next live event or end-of-instant hook, or
    ``inf``: what a step would run next, cancelled entries skipped."""
    sim._purge_head()
    if sim._instant_end:
        return sim.now
    return sim._queue[0][0] if sim._queue else math.inf


@dataclass
class IPFSWorld:
    """A ready-made simulator + network + IPFS nodes + clients."""

    sim: Simulator
    network: Network
    transport: Transport
    dht: DHT
    pubsub: PubSub
    nodes: List[IPFSNode] = field(default_factory=list)
    clients: Dict[str, IPFSClient] = field(default_factory=dict)

    def node(self, index: int) -> IPFSNode:
        return self.nodes[index]

    def client(self, name: str) -> IPFSClient:
        return self.clients[name]


def make_ipfs_world(
    num_nodes: int = 2,
    client_names=("client-0",),
    bandwidth_mbps: float = 10.0,
    lookup_delay: float = 0.0,
    latency: float = 0.0,
    request_timeout: float = 120.0,
) -> IPFSWorld:
    """Build a world with ``num_nodes`` IPFS nodes and the given clients."""
    sim = Simulator()
    network = Network(sim, default_latency=latency)
    bandwidth = mbps(bandwidth_mbps)
    node_names = [f"ipfs-{i}" for i in range(num_nodes)]
    for name in list(client_names) + node_names:
        network.add_host(name, up_bandwidth=bandwidth,
                         down_bandwidth=bandwidth)
    transport = Transport(network)
    dht = DHT(sim, lookup_delay=lookup_delay)
    pubsub = PubSub(transport)
    nodes = [
        IPFSNode(sim, transport, dht, name) for name in node_names
    ]
    clients = {name: IPFSClient(name, transport, dht)
               for name in client_names}
    for client in clients.values():
        client.request_timeout = request_timeout
    return IPFSWorld(
        sim=sim, network=network, transport=transport, dht=dht,
        pubsub=pubsub, nodes=nodes, clients=clients,
    )


def set_host_capacity(network: Network, name: str, up=None,
                      down=None) -> None:
    """Change a host's link capacities mid-run (bytes/second); in-flight
    flows keep the bytes already delivered and share the new capacities
    from now on.  No fault kind does this; the solver tests do."""
    host = network._hosts[name]
    changed = []
    for link, capacity in ((host.uplink, up), (host.downlink, down)):
        if capacity is not None:
            link.capacity = float(capacity)
            changed.append(link)
    if changed:
        network._scheduler.rates_changed(changed)


def run_proc(world: IPFSWorld, generator):
    """Run one client process to completion and return its value."""
    process = world.sim.process(generator)
    world.sim.run()
    if not process.ok:
        raise process.value
    return process.value


@dataclass
class BundleRun:
    """One ``cli run``: exit code, what it printed, where the bundle is."""

    code: int
    out: str
    err: str
    path: pathlib.Path


def run_bundle(argv, path) -> BundleRun:
    """``python -m repro.cli run ARGV --artifacts PATH`` on a ticking
    fake clock: the profiler and the heartbeat never read the host's,
    so tier-1 stays independent of host timing."""
    from repro.cli import _run_run, build_parser

    args = build_parser().parse_args(
        ["run", *argv, "--artifacts", str(path)])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _run_run(args, clock=FakeWallClock(tick=1e-6))
    return BundleRun(code, out.getvalue(), err.getvalue(),
                     pathlib.Path(path))
