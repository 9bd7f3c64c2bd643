"""One max-min solve per simulated instant.

:class:`FlowScheduler` mutations only mark links dirty; a single
*settle* per busy timestamp (an end-of-instant hook) re-solves the touched
components.  These tests pin what that buys (solver-call and
recomputed-flow counts the recompute-per-change scheduler fails), what it
must not change (every completion time of a recorded scenario, float for
float) and the two ways a reader could observe the gap between a change
and its settle (rate reads, a clock advance).
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from repro import FLSession, NetworkProfile, ProtocolConfig
from repro.ml import Dataset, SyntheticModel
from repro.net import Network
from repro.net import bandwidth
from repro.net.bandwidth import FlowScheduler, Link
from repro.obs import MetricsRegistry, ResourceSampler
from repro.sim import Simulator
from tests.test_net_incremental import utilization_oracle
from tests.util import set_host_capacity

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture
def solver_calls(monkeypatch):
    """Count calls of the one solver (what the benchmark's
    ``net.recomputes`` counts)."""
    calls = []
    solver = bandwidth.max_min_rates

    def counting(flows):
        calls.append(len(flows))
        return solver(flows)

    monkeypatch.setattr(bandwidth, "max_min_rates", counting)
    return calls


# -- count gates ---------------------------------------------------------------


def test_same_instant_burst_is_one_solve(solver_calls):
    """64 starts at one timestamp: one solve over 64 flows, not 64 solves
    over 1 + 2 + ... + 64 = 2 080."""
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    hub = Link("hub/down", 64e6)
    spokes = [Link(f"spoke-{i}/up", 1e6) for i in range(64)]
    done = [scheduler.start_flow((spoke, hub), 1e5 * (index + 1))
            for index, spoke in enumerate(spokes)]
    sim.run_until(done[0])  # the smallest flow is the first finish
    assert solver_calls == [64]
    assert scheduler.recomputed_flows == 64
    assert scheduler.cancelled_wakeups == 0
    sim.run()
    # One more solve per finish instant, each over the survivors.
    assert len(solver_calls) == 64
    assert scheduler.recomputed_flows == sum(range(1, 65))
    assert scheduler.stale_wakeups == 0


def test_exact_session_round_solves_once_per_busy_instant(solver_calls):
    """One round of 24 exactly-simulated trainers.  Measured at this
    commit: 26 solves over 618 flows, 1 cancelled wakeup; the
    recompute-per-change scheduler needed 622 solves over 12 951 flows
    and cancelled 595 wakeups for the same simulated round."""
    config = ProtocolConfig(num_partitions=2, t_train=600.0, t_sync=1200.0,
                            update_mode="gradient", poll_interval=0.25,
                            seed=11)
    datasets = [Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
                for index in range(24)]
    session = FLSession(config, lambda: SyntheticModel(4000), datasets,
                        network=NetworkProfile(num_ipfs_nodes=4,
                                               bandwidth_mbps=10.0))
    metrics = session.run_iteration()
    network = session.testbed.network
    assert metrics.end_to_end_delay == 0.6055967999999999  # as before
    assert len(solver_calls) <= 40
    assert network.recomputed_flows <= 800
    assert network.cancelled_wakeups <= 10
    assert network.stale_wakeups == 0


# -- completion-time golden ----------------------------------------------------


def test_completion_times_match_recompute_per_change_golden():
    """200 seeded flows (bursts, an abort, a capacity change, an infinite
    link): same completion order, same finish times to the last bit as the
    scheduler that re-solved on every start and finish."""
    spec = importlib.util.spec_from_file_location(
        "capture_flow_golden",
        os.path.join(HERE, "data", "capture_flow_golden.py"),
    )
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    with open(os.path.join(HERE, "data",
                           "flow_completion_golden.json")) as handle:
        golden = json.load(handle)
    assert capture.completion_scenario() == golden


# -- settled reads -------------------------------------------------------------


def test_link_utilization_reports_the_settled_allocation_mid_instant():
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    shared = Link("shared", 100.0)
    spurs = [Link(f"spur{i}", 30.0 + i) for i in range(4)]
    for spur in spurs[:2]:
        scheduler.start_flow((shared, spur), 1000.0)
    sim.run(until=1.0)
    before = scheduler.recomputed_flows
    for spur in spurs[2:]:
        scheduler.start_flow((shared, spur), 1000.0)
    # Change made, settle still queued: the stored rates are stale ...
    assert scheduler._settle_pending
    assert [flow.rate for flow in scheduler._flows[2:]] == [0.0, 0.0]
    # ... but the read is not, and it leaves no trace in the scheduler.
    assert scheduler.link_utilization() == utilization_oracle(scheduler)
    assert scheduler.link_utilization()[shared] == 1.0
    assert scheduler.recomputed_flows == before
    assert [flow.rate for flow in scheduler._flows[2:]] == [0.0, 0.0]
    sim.run(until=sim.now)
    assert not scheduler._settle_pending
    assert scheduler.link_utilization() == utilization_oracle(scheduler)


def test_resource_sampler_tick_on_a_busy_instant_records_settled_rates():
    sim = Simulator()
    network = Network(sim)
    for name in ("a", "b", "c"):
        network.add_host(name, up_bandwidth=10.0, down_bandwidth=40.0)

    def start_transfers(_event):
        network.transfer("a", "c", 100.0)
        network.transfer("b", "c", 100.0)

    # Scheduled before the sampler's t=1 tick, so the tick lands after the
    # starts and before their settle.
    sim.timeout(1.0)._add_callback(start_transfers)
    registry = MetricsRegistry(sim.bus)
    sampler = ResourceSampler(sim, registry, interval=1.0, network=network)
    sim.run(until=1.0)
    sampler.stop()
    assert registry.timeseries("net.flows.active").last == 2
    assert {
        link: registry.timeseries("net.link.utilization", link=link).last
        for link in ("a/up", "b/up", "c/down")
    } == {"a/up": 1.0, "b/up": 1.0, "c/down": 0.5}


# -- a settle never spans a clock advance --------------------------------------


def test_advance_with_a_pending_settle_raises():
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    scheduler.start_flow((Link("l", 10.0),), 100.0)
    sim._now = 1.0  # what the kernel never does: skip a queued hook
    with pytest.raises(RuntimeError, match="settle pending"):
        scheduler.start_flow((Link("m", 10.0),), 100.0)


def _two_transfers():
    sim = Simulator()
    network = Network(sim)
    network.add_host("a", up_bandwidth=10.0, down_bandwidth=10.0)
    network.add_host("b", up_bandwidth=1000.0)
    network.add_host("c", up_bandwidth=1000.0)
    short = network.transfer("a", "b", 100.0)
    long = network.transfer("a", "c", 300.0)
    # 5 B/s each until the short one is through at t=20; run_until returns
    # inside that instant, before its settle has run.
    sim.run_until(short)
    assert sim.now == 20.0
    assert network._scheduler._settle_pending
    return sim, network, long


def test_run_until_may_return_before_the_settle_then_capacity_changes():
    sim, network, long = _two_transfers()
    set_host_capacity(network, "a", up=20.0)
    sim.run()
    assert long.processed and long.ok
    assert sim.now == 30.0  # 200 B left at t=20, alone on 20 B/s


def test_run_until_may_return_before_the_settle_then_more_work_starts():
    """The next ``run_iteration`` begins at the timestamp the previous one
    returned at; its first transfers join the queued settle."""
    sim, network, long = _two_transfers()
    late = network.transfer("a", "b", 100.0)
    sim.run_until(late)
    assert sim.now == 40.0  # 5 B/s each again from t=20
    sim.run()
    assert long.processed and sim.now == 50.0  # 100 B left, alone on 10 B/s
    assert network.stale_wakeups == 0
