"""End-of-instant hooks: ``Simulator.at_instant_end``.

A hook is one-shot work for the current timestamp that must see every
event of it — the flow scheduler's settle, which re-solves the rates of
the flows the instant's events touched.  It runs once no queued event is
left at ``now``, before the clock moves, one hook per ``step()``, first
in, first out.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import PRIORITY_URGENT, Simulator


def test_hook_runs_after_normal_events_scheduled_later():
    """A hook waits for every event of its timestamp — also those
    scheduled after it, and those they go on to schedule."""
    sim = Simulator()
    order = []

    def register(_event):
        sim.at_instant_end(lambda: order.append("end"))

    def chain(_event):
        order.append("normal")
        sim.timeout(0.0)._add_callback(
            lambda _event: order.append("normal-child"))

    sim.timeout(1.0)._add_callback(register)
    sim.timeout(1.0)._add_callback(chain)
    sim.event().succeed()._add_callback(lambda _event: order.append("now"))
    sim.run()
    assert order == ["now", "normal", "normal-child", "end"]


def test_hook_runs_before_any_later_timestamp():
    sim = Simulator()
    order = []
    sim.timeout(1.0 + 1e-9)._add_callback(
        lambda _event: order.append(("next", sim.now)))
    sim.timeout(1.0)._add_callback(lambda _event: sim.at_instant_end(
        lambda: order.append(("end", sim.now))))
    sim.run(until=1.0)  # stops at the boundary, the hook included
    assert order == [("end", 1.0)]
    sim.run()
    assert order == [("end", 1.0), ("next", 1.0 + 1e-9)]


def test_hooks_keep_fifo_order_and_may_spawn_same_instant_work():
    sim = Simulator()
    order = []

    def first():
        order.append("end-1")
        sim.timeout(0.0)._add_callback(
            lambda _event: order.append("normal-after-end"))

    sim.at_instant_end(first)
    sim.at_instant_end(lambda: order.append("end-2"))
    assert sim.peek() == 0.0
    sim.run()
    # The NORMAL event a hook schedules outranks the remaining hook.
    assert order == ["end-1", "normal-after-end", "end-2"]
    assert sim.now == 0.0
    assert sim.peek() == float("inf")


def test_run_until_returns_with_the_hook_still_queued():
    """``run_until`` stops once its event is processed; a hook of that
    instant runs on the next step, at the same timestamp."""
    sim = Simulator()
    order = []
    done = sim.timeout(2.0)
    done._add_callback(lambda _event: sim.at_instant_end(
        lambda: order.append(sim.now)))
    sim.run_until(done)
    assert order == [] and sim.peek() == 2.0
    sim.step()
    assert order == [2.0]


# -- generated orderings -------------------------------------------------------

# One node of a random chain: (kind, delay, children).  "normal" is a
# timeout of ``delay``, "normal0" one of zero delay, "urgent" an URGENT
# event now, "end" an end-of-instant hook; dispatched, each schedules its
# children.
_kind = st.sampled_from(["normal0", "normal", "urgent", "end"])
_delay = st.sampled_from([0.0, 0.5, 1.0])
_chain = st.recursive(
    st.tuples(_kind, _delay, st.just(())),
    lambda children: st.tuples(_kind, _delay,
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=25,
)


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(_chain, min_size=1, max_size=5),
       until=st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 1.5])))
def test_hooks_run_last_in_their_instant_fifo_over_random_chains(roots,
                                                                 until):
    """Over random NORMAL / URGENT / zero-delay chains, every hook runs at
    the timestamp that registered it, with no live event of that
    timestamp left queued, and hooks run in registration order."""
    sim = Simulator()
    registered, ran = [], []

    def spawn(node):
        kind, delay, children = node

        def dispatch(_event=None):
            for child in children:
                spawn(child)

        if kind == "end":
            ticket = len(registered)
            registered.append(sim.now)

            def hook():
                assert sim.now == registered[ticket]
                assert all(entry[3] is None or entry[0] > sim.now
                           for entry in sim._queue)
                ran.append(ticket)
                dispatch()

            sim.at_instant_end(hook)
        elif kind == "urgent":
            event = sim.event()
            event._ok, event._value = True, None
            event.callbacks.append(dispatch)
            sim._schedule(event, PRIORITY_URGENT)
        else:
            sim.timeout(0.0 if kind == "normal0" else delay)._add_callback(
                dispatch)

    for root in roots:
        spawn(root)
    sim.run(until=until)
    # Whatever stopped the run, no instant it reached kept a hook back.
    assert ran == list(range(len(registered)))
    if until is not None:
        assert sim.now == until
        sim.run()
        assert ran == list(range(len(registered)))
