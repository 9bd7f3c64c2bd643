"""Per-component settle: closed forms where they are exact, one pooled solve
for the rest.

``FlowScheduler._solve_dirty`` splits the flows of an instant's dirty
links into their components over *finite* links.  A component with no
finite link gets ``inf``, one with a single finite link that link's
capacity over its crossings — the first progressive-filling round, and
for that shape the last — and only the rest reaches ``max_min_rates``.
Both must equal the full-scan oracle (``tests/reference_max_min.py``)
over the union of the dirty links' components, bit for bit.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import bandwidth
from repro.net.bandwidth import FlowScheduler, Link
from repro.sim import Simulator
from tests.reference_max_min import max_min_rates as reference_rates

NUM_HOSTS = 6

# Few distinct capacities, so shares tie; inf makes a host a non-edge.
_capacity = st.sampled_from([math.inf, 0.1, 1.0, 3.0, 10.0, 250.0])

_mutation = st.one_of(
    st.tuples(st.just("start"), st.integers(0, NUM_HOSTS - 1),
              st.integers(0, NUM_HOSTS - 1),
              st.floats(1.0, 1000.0, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("abort"), st.integers(0, NUM_HOSTS - 1)),
    st.tuples(st.just("capacity"), st.integers(0, NUM_HOSTS - 1),
              st.booleans(), _capacity),
)

_instants = st.lists(
    st.tuples(st.lists(_mutation, min_size=1, max_size=12),
              st.floats(0.01, 5.0, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=10,
)


def _finite_components(flows):
    """``flows`` split into components over their finite links, each as
    (flows, distinct finite links)."""
    remaining = list(flows)
    components = []
    while remaining:
        component, links = [remaining.pop(0)], set()
        for flow in component:
            for link in flow.links:
                if link.capacity == math.inf or link in links:
                    continue
                links.add(link)
                joined = [other for other in remaining if link in other.links]
                remaining = [other for other in remaining
                             if other not in joined]
                component.extend(joined)
        components.append((component, links))
    return components


def _dirty_union(scheduler):
    """The flows on dirty links and every flow sharing a finite link with
    one of them, transitively: what one solve over the union covers."""
    dirty = set(scheduler._dirty)
    union = [flow for flow in scheduler._flows if dirty & set(flow.links)]
    for flow in union:
        finite = {link for link in flow.links if link.capacity != math.inf}
        union.extend(other for other in scheduler._flows
                     if other not in union and finite & set(other.links))
    return sorted(union, key=lambda flow: flow.flow_id)


def _recording_solver(calls):
    """The production solver, recording per call the number of distinct
    finite links of each component it was handed (read at call time:
    capacities mutate)."""
    solver = bandwidth.max_min_rates

    def recording(flows):
        calls.append([len(links) for _, links in _finite_components(flows)])
        return solver(flows)

    return recording


@settings(max_examples=200, deadline=None)
@given(capacities=st.lists(st.tuples(_capacity, _capacity),
                           min_size=NUM_HOSTS, max_size=NUM_HOSTS),
       instants=_instants)
def test_per_component_solve_equals_the_oracle_over_the_dirty_union(
        capacities, instants):
    """Stars of hosts with finite and infinite links, several flows per
    host, capacity mutations finite <-> infinite and aborts: the pending
    solve equals the oracle over the dirty union, the settled rates equal
    a global oracle solve, and no component with at most one finite link
    ever reaches the solver."""
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    hosts = [(Link(f"h{i}/up", up), Link(f"h{i}/down", down))
             for i, (up, down) in enumerate(capacities)]
    calls = []
    clock = 0.0
    with mock.patch.object(bandwidth, "max_min_rates",
                           _recording_solver(calls)):
        for burst, pause in instants:
            for op in burst:
                if op[0] == "start":
                    _, src, dst, size = op
                    scheduler.start_flow(
                        (hosts[src][0], hosts[dst][1]), size).defused()
                elif op[0] == "abort":
                    scheduler.abort_flows(hosts[op[1]])
                else:
                    _, host, up, capacity = op
                    link = hosts[host][0 if up else 1]
                    link.capacity = capacity
                    scheduler.rates_changed([link])
            assert scheduler._solve_dirty() \
                == reference_rates(_dirty_union(scheduler))
            sim.run(until=sim.now)  # the instant's one settle
            expected = reference_rates(list(scheduler._flows))
            assert {flow: flow.rate for flow in scheduler._flows} == expected
            clock += pause
            sim.run(until=clock)
    assert all(finite >= 2 for call in calls for finite in call)


def test_polls_through_an_infinite_hub_never_reach_the_solver():
    """The directory shape: every poller's one finite uplink into a hub
    of infinite capacity.  The dirty hub link no longer fuses the pollers
    into one component; each is its own closed form."""
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    hub = Link("directory/down", math.inf)
    uplinks = [Link(f"trainer-{i}/up", 1e6 * (i + 1)) for i in range(8)]
    for index, uplink in enumerate(uplinks):
        scheduler.start_flow((uplink, hub), 1e3)
        if index % 2:  # two flows on every other poller's uplink
            scheduler.start_flow((uplink, hub), 2e3)
    calls = []
    with mock.patch.object(bandwidth, "max_min_rates",
                           _recording_solver(calls)):
        pending = scheduler._solve_dirty()
        sim.run(until=sim.now)
    assert calls == []
    assert pending == reference_rates(list(scheduler._flows))
    assert {flow: flow.rate for flow in scheduler._flows} == pending
    assert scheduler.recomputed_flows == 12
