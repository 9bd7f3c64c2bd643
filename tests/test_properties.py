"""Property-based tests for cross-cutting invariants:

- max-min fairness: capacity respected, work conservation, bottleneck
  optimality;
- flow conservation in the scheduler;
- simulated-time monotonicity under random process graphs;
- protocol-level invariants over a configuration grid.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FLSession, ProtocolConfig, decode_partition
from repro.ipfs import compute_cid
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile
from repro.net.bandwidth import Flow, FlowScheduler, Link, max_min_rates
from repro.sim import Simulator


# -- max-min fairness properties -----------------------------------------------------


@st.composite
def flow_systems(draw):
    """A random set of links and flows crossing subsets of them."""
    num_links = draw(st.integers(min_value=1, max_value=6))
    links = [
        Link(f"l{i}", draw(st.floats(min_value=1.0, max_value=1000.0)))
        for i in range(num_links)
    ]
    num_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for index in range(num_flows):
        chosen = draw(st.sets(
            st.integers(min_value=0, max_value=num_links - 1),
            min_size=1, max_size=num_links,
        ))
        flows.append(Flow(index, tuple(links[i] for i in chosen),
                          size=100.0, done=None))
    return links, flows


@settings(max_examples=80)
@given(flow_systems())
def test_max_min_respects_capacities(system):
    links, flows = system
    rates = max_min_rates(flows)
    for link in links:
        load = sum(rates[flow] for flow in flows if link in flow.links)
        assert load <= link.capacity * (1 + 1e-9)


@settings(max_examples=80)
@given(flow_systems())
def test_max_min_every_flow_bottlenecked(system):
    """Work conservation: every flow crosses at least one saturated link
    (otherwise its rate could be raised, contradicting max-min)."""
    links, flows = system
    rates = max_min_rates(flows)
    for flow in flows:
        assert rates[flow] > 0
        saturated = False
        for link in flow.links:
            load = sum(rates[f] for f in flows if link in f.links)
            if load >= link.capacity * (1 - 1e-9):
                saturated = True
                break
        assert saturated, f"flow {flow.flow_id} is not bottlenecked"


@settings(max_examples=80)
@given(flow_systems())
def test_max_min_bottleneck_fairness(system):
    """On each saturated link, no crossing flow gets less than another
    unless it is constrained elsewhere (the max-min condition)."""
    links, flows = system
    rates = max_min_rates(flows)
    for link in links:
        crossing = [flow for flow in flows if link in flow.links]
        if not crossing:
            continue
        load = sum(rates[flow] for flow in crossing)
        if load < link.capacity * (1 - 1e-9):
            continue  # unsaturated link constrains nobody
        top_rate = max(rates[flow] for flow in crossing)
        for flow in crossing:
            if rates[flow] >= top_rate * (1 - 1e-9):
                continue
            # A flow below the top share must be saturated elsewhere.
            constrained = False
            for other_link in flow.links:
                if other_link is link:
                    continue
                other_load = sum(
                    rates[f] for f in flows if other_link in f.links
                )
                if other_load >= other_link.capacity * (1 - 1e-9):
                    constrained = True
                    break
            assert constrained


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=1.0, max_value=10_000.0),
             min_size=1, max_size=8),
    st.floats(min_value=1.0, max_value=1000.0),
)
def test_flow_scheduler_conserves_bytes(sizes, capacity):
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    link = Link("l", capacity)

    def proc(size):
        yield scheduler.start_flow((link,), size)

    for size in sizes:
        sim.process(proc(size))
    sim.run()
    assert scheduler.bytes_delivered == pytest.approx(sum(sizes))
    assert scheduler.active_flows == 0


# -- simulated-time monotonicity ---------------------------------------------------------


@settings(max_examples=30)
@given(st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),   # spawn delay
        st.floats(min_value=0.0, max_value=50.0),   # inner delay
        st.integers(min_value=0, max_value=3),      # children
    ),
    min_size=1, max_size=12,
))
def test_sim_time_monotone_under_random_process_trees(spec):
    sim = Simulator()
    observed = []

    def child(sim, delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    def parent(sim, spawn_delay, inner_delay, children):
        yield sim.timeout(spawn_delay)
        observed.append(sim.now)
        spawned = [
            sim.process(child(sim, inner_delay + i))
            for i in range(children)
        ]
        if spawned:
            yield sim.all_of(spawned)
            observed.append(sim.now)

    for spawn_delay, inner_delay, children in spec:
        sim.process(parent(sim, spawn_delay, inner_delay, children))
    sim.run()
    assert observed == sorted(observed)
    assert all(t >= 0 for t in observed)


# -- content addressing determinism -----------------------------------------------------------


@given(st.binary(max_size=256), st.binary(max_size=256))
def test_cid_injective_on_examples(a, b):
    if a != b:
        assert compute_cid(a) != compute_cid(b)
    else:
        assert compute_cid(a) == compute_cid(b)


# -- protocol invariants over a configuration grid ------------------------------------------------


@pytest.mark.parametrize("num_partitions", [1, 3])
@pytest.mark.parametrize("aggregators_per_partition", [1, 2])
@pytest.mark.parametrize("merge", [False, True])
def test_protocol_invariants_grid(num_partitions,
                                  aggregators_per_partition, merge):
    """For every topology: all trainers finish, all models agree, the
    update counter equals the number of contributing trainers, and every
    partition has exactly one visible global update."""
    num_trainers = 6
    data = make_classification(num_samples=180, num_features=9,
                               class_separation=3.0, seed=1)
    shards = split_iid(data, num_trainers, seed=1)
    config = ProtocolConfig(
        num_partitions=num_partitions,
        aggregators_per_partition=aggregators_per_partition,
        t_train=300.0,
        t_sync=600.0,
        merge_and_download=merge,
        providers_per_aggregator=2 if merge else 0,
    )
    session = FLSession(
        config,
        lambda: LogisticRegression(num_features=9, num_classes=2, seed=0),
        shards,
        network=NetworkProfile(num_ipfs_nodes=4),
    )
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == num_trainers
    session.consensus_params()
    for partition in range(num_partitions):
        updates = [
            entry for entry in
            session.directory.state.entries_for(partition, 0, "update")
            if entry.verified is not False
        ]
        assert len(updates) == 1
        node = next(node for node in session.nodes
                    if updates[0].cid in node.store)
        blob = node.load_object(updates[0].cid)
        _, counter = decode_partition(blob)
        assert counter == float(num_trainers)
