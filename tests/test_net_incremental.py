"""Incremental fair-share vs the from-scratch oracle.

The bottleneck-queue solver, the delta-based :class:`FlowScheduler`
recomputation (once per busy instant, only the connected component whose
flow set changed) and the numpy-vectorized allocator must all be
*float-equal* to the full-scan progressive fill kept in
``tests/reference_max_min.py`` — that equality is what lets the committed
golden manifests survive every solver rewrite.  Also covers the satellite
fixes that rode along: the residual clamp, the single-pass abort, the
wakeup cancellation counters, and the sub-ulp completion guard.
"""

import math
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.bandwidth import (
    Flow,
    FlowScheduler,
    Link,
    TransferAbortedError,
    max_min_rates,
    max_min_rates_vectorized,
)
from repro.sim import Simulator
from tests.reference_max_min import max_min_rates as reference_rates

NUM_LINKS = 5

# One scheduler mutation: start a flow over a link subset, kill a link's
# flows, or mutate a link's capacity.
_mutation = st.one_of(
    st.tuples(
        st.just("start"),
        st.sets(st.integers(0, NUM_LINKS - 1), min_size=1, max_size=3),
        st.floats(1.0, 1000.0, allow_nan=False, allow_infinity=False),
    ),
    st.tuples(st.just("abort"), st.integers(0, NUM_LINKS - 1)),
    st.tuples(
        st.just("capacity"),
        st.integers(0, NUM_LINKS - 1),
        st.floats(1.0, 500.0, allow_nan=False, allow_infinity=False),
    ),
)

# One simulated instant: a burst of mutations sharing a timestamp (all
# coalesced into one settle), then the clock moves on.
_instants = st.lists(
    st.tuples(
        st.lists(_mutation, min_size=1, max_size=12),
        st.floats(0.01, 5.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=10,
)


def _assert_rates_match_oracle(scheduler):
    assert not scheduler._settle_pending
    expected = reference_rates(list(scheduler._flows))
    for flow in scheduler._flows:
        assert flow.rate == expected[flow]


def _assert_solver_matches_oracle(flows):
    """``==`` per flow, not approx: a last-bit difference moves a finish
    time, and seeded replays diverge."""
    rates = max_min_rates(flows)
    expected = reference_rates(flows)
    assert len(rates) == len(expected) == len(flows)
    for flow in flows:
        assert rates[flow] == expected[flow], flow


# Few distinct capacities, so shares tie; 0.1 is not dyadic, so repeated
# subtraction drifts below zero and the clamp engages; inf never
# bottlenecks.
_capacity = st.one_of(
    st.sampled_from([math.inf, 0.1, 1.0, 3.0, 10.0]),
    st.floats(0.5, 1e4, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(
    capacities=st.lists(_capacity, min_size=1, max_size=8),
    routes=st.lists(st.lists(st.integers(0, 7), max_size=4), min_size=1,
                    max_size=40),
)
def test_solver_matches_oracle_on_any_incidence(capacities, routes):
    """Arbitrary routes: shared and infinite links, a link listed twice on
    one flow, flows crossing no link at all."""
    links = [Link(f"l{i}", capacity) for i, capacity in enumerate(capacities)]
    flows = [Flow(flow_id, tuple(links[i % len(links)] for i in route), 1.0,
                  done=None)
             for flow_id, route in enumerate(routes)]
    _assert_solver_matches_oracle(flows)


@settings(max_examples=40, deadline=None)
@given(
    hosts=st.integers(2, 1100),
    burst=st.integers(1, 1024),
    capacities=st.lists(st.sampled_from([1e6, 2e6, 2.5e6, 64e6, math.inf]),
                        min_size=1, max_size=4),
    rng=st.randoms(use_true_random=False),
)
@example(hosts=1025, burst=1024, capacities=[1e6, 64e6], rng=Random(0))
@example(hosts=2, burst=1, capacities=[1e6], rng=Random(0))
def test_solver_matches_oracle_on_a_star_burst(hosts, burst, capacities,
                                               rng):
    """The paper's mininet star: every host hangs off one access link each
    way, and a burst of 1 to 1 024 transfers starts at one instant."""
    up = [Link(f"h{i}/up", rng.choice(capacities)) for i in range(hosts)]
    down = [Link(f"h{i}/down", rng.choice(capacities)) for i in range(hosts)]
    flows = [Flow(flow_id, (rng.choice(up), rng.choice(down)), 1.0,
                  done=None)
             for flow_id in range(burst)]
    _assert_solver_matches_oracle(flows)


@settings(max_examples=60, deadline=None)
@given(instants=_instants)
def test_incremental_allocation_matches_oracle(instants):
    """At the end of every instant, every live rate equals the oracle's.

    Equality is ``==``, not approx: the incremental path must follow
    the oracle's float arithmetic exactly, or seeded replays diverge.
    """
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    links = [Link(f"l{i}", 10.0 * (i + 1)) for i in range(NUM_LINKS)]
    clock = 0.0
    for burst, pause in instants:
        for op in burst:
            if op[0] == "start":
                _, indices, size = op
                done = scheduler.start_flow(
                    tuple(links[i] for i in sorted(indices)), size
                )
                done.defused()  # aborts are expected, not failures
            elif op[0] == "abort":
                scheduler.abort_flows([links[op[1]]])
            else:
                _, index, capacity = op
                links[index].capacity = capacity
                scheduler.rates_changed([links[index]])
        sim.run(until=sim.now)  # the instant's one settle
        _assert_rates_match_oracle(scheduler)
        clock += pause
        sim.run(until=clock)  # finishes on the way settle themselves
        _assert_rates_match_oracle(scheduler)


@settings(max_examples=40, deadline=None)
@given(
    topology=st.lists(
        st.tuples(
            st.sets(st.integers(0, NUM_LINKS - 1), min_size=1, max_size=4),
            st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=60,
    ),
    capacities=st.lists(
        st.floats(0.5, 1e4, allow_nan=False, allow_infinity=False),
        min_size=NUM_LINKS,
        max_size=NUM_LINKS,
    ),
)
def test_vectorized_allocator_matches_oracle(topology, capacities):
    """The numpy path is bit-identical to the scalar progressive fill."""
    links = [Link(f"l{i}", capacities[i]) for i in range(NUM_LINKS)]
    flows = [
        Flow(flow_id, tuple(links[i] for i in sorted(indices)), size,
             done=None)
        for flow_id, (indices, size) in enumerate(topology)
    ]
    scalar = reference_rates(flows)
    vectorized = max_min_rates_vectorized(flows)
    for flow in flows:
        assert vectorized[flow] == scalar[flow]


def test_settle_resolves_only_the_touched_component():
    """A change re-solves its own component and nothing else; the rates
    still equal a global allocation (components never interact, so the
    untouched flows would just re-receive the rates they hold)."""
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    links = [Link(f"l{i}", 10.0 + i) for i in range(4)]
    # Two independent components: {l0, l1} and {l2, l3}.
    for pair in [(0, 1), (0,), (2, 3), (3,), (1,), (2,)]:
        scheduler.start_flow(tuple(links[i] for i in pair), 500.0).defused()
    sim.run(until=1.0)
    assert scheduler.recomputed_flows == 6  # one settle, both components
    scheduler.abort_flows([links[3]])
    sim.run(until=sim.now)
    assert len(scheduler._flows) == 4
    assert scheduler.recomputed_flows == 6 + 1  # only the l2 survivor
    _assert_rates_match_oracle(scheduler)


def test_vectorized_allocator_handles_infinite_links():
    inf = Link("inf", math.inf)
    narrow = Link("narrow", 10.0)
    constrained = Flow(0, (inf, narrow), 100.0, done=None)
    free = Flow(1, (inf,), 100.0, done=None)
    rates = max_min_rates_vectorized([constrained, free])
    assert rates[constrained] == 10.0
    assert math.isinf(rates[free])


# -- residual clamp (satellite) ------------------------------------------------


def test_progressive_fill_residual_never_negative():
    """Many equal flows on one link drive the float residual to exactly 0.

    Before the clamp, repeated ``residual -= share`` subtraction left a
    tiny negative residual on the bottleneck, which could surface as a
    (harmlessly) negative rate for a later-frozen flow.  The clamp pins
    the floor at 0.0.
    """
    link = Link("l", 0.1)  # 0.1 is not a dyadic float: drift-prone
    side = Link("side", 1000.0)
    flows = [Flow(i, (link, side), 100.0, done=None) for i in range(7)]
    rates = max_min_rates(flows)
    assert all(rate >= 0.0 for rate in rates.values())
    assert sum(rates.values()) <= link.capacity + 1e-9


# -- abort + counters (satellite) ---------------------------------------------


def test_abort_is_single_pass_and_sorted():
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    dead = Link("dead", 10.0)
    alive = Link("alive", 10.0)
    events = [scheduler.start_flow((dead,), 100.0),
              scheduler.start_flow((alive,), 100.0),
              scheduler.start_flow((dead, alive), 100.0)]
    for event in events:
        event.defused()
    sim.run(until=sim.now)  # settle the starts
    aborted = scheduler.abort_flows([dead])
    assert [flow.flow_id for flow in aborted] == [0, 2]
    assert len(scheduler._flows) == 1
    # Survivor reclaims the full link once the abort's instant settles.
    survivor = scheduler._flows[0]
    assert survivor.rate == 5.0
    sim.run(until=sim.now)
    assert survivor.rate == 10.0


def test_abort_of_idle_link_is_a_noop():
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    idle = Link("idle", 10.0)
    assert scheduler.abort_flows([idle]) == []


def test_wakeup_cancellation_counters():
    """Superseded wakeups are cancelled (removed from the heap), and no
    wakeup ever fires against a dead epoch."""
    link = Link("l", 10.0)
    sim = Simulator()
    scheduler = FlowScheduler(sim)

    def driver():
        first = scheduler.start_flow((link,), 100.0)
        yield sim.timeout(1.0)
        second = scheduler.start_flow((link,), 100.0)  # re-arms the wakeup
        yield first
        yield second

    sim.process(driver())
    sim.run()
    assert scheduler.cancelled_wakeups > 0
    assert scheduler.stale_wakeups == 0
    assert len(scheduler._flows) == 0


# -- sub-ulp completion guard --------------------------------------------------


def test_sub_resolution_flow_completes_instead_of_livelocking():
    """A residual whose finish delay is below the clock's float ulp.

    At aggregate-link rates (10^8+ B/s) a flow can be left with remaining
    bytes just above the epsilon while ``remaining / rate`` is smaller
    than one ulp of ``sim.now`` — the armed wakeup then fires at the
    *same* timestamp and no progress is ever possible.  The guard must
    deliver the flow rather than spin forever.
    """
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    fast = Link("fast", 1e9)

    def driver():
        # Park the clock high so one ulp is coarse (~1.5e-5 at 1e11).
        yield sim.timeout(1e11)
        done = scheduler.start_flow((fast,), 2e-3)  # finish delay 2e-12
        yield done

    process = sim.process(driver())
    sim.run()
    assert process.processed
    assert len(scheduler._flows) == 0
    assert scheduler.bytes_delivered == pytest.approx(2e-3)


def test_transfer_abort_error_is_exported():
    assert issubclass(TransferAbortedError, Exception)
