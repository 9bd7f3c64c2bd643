"""Edge-case tests for the simulation kernel and primitives — the corner
paths the protocol stack relies on implicitly."""

import pytest

from repro.sim import (
    Event,
    FilterStore,
    Interrupt,
    Simulator,
    Store,
)
from repro.sim.core import AnyOf, SimulationError


# -- run_until -------------------------------------------------------------------


def test_run_until_stops_at_event_not_queue_drain():
    sim = Simulator()
    late_noise = sim.timeout(1000.0)  # would drag the clock to 1000

    def quick(sim):
        yield sim.timeout(5.0)

    proc = sim.process(quick(sim))
    sim.run_until(proc)
    assert sim.now == 5.0
    assert not late_noise.processed  # still queued, untouched


def test_run_until_deadlock_detected():
    sim = Simulator()
    never = sim.event()  # nobody will trigger this

    def waiter(sim, event):
        yield event

    proc = sim.process(waiter(sim, never))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until(proc)


def test_run_until_already_processed_event():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    proc = sim.process(quick(sim))
    sim.run()
    sim.run_until(proc)  # no-op, returns immediately
    assert sim.now == 1.0


def test_leftover_events_fire_harmlessly_later():
    """Stale timeouts from a finished phase must not disturb the next."""
    sim = Simulator()
    stale = sim.timeout(50.0)

    def phase_one(sim):
        yield sim.timeout(1.0)

    def phase_two(sim, log):
        yield sim.timeout(100.0)
        log.append(sim.now)

    proc1 = sim.process(phase_one(sim))
    sim.run_until(proc1)
    log = []
    proc2 = sim.process(phase_two(sim, log))
    sim.run_until(proc2)
    assert log == [101.0]
    assert stale.processed


# -- conditions on edge inputs ---------------------------------------------------------


def test_any_of_with_already_fired_event():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()  # process it
    log = []

    def waiter(sim, done):
        outcome = yield sim.any_of([done, sim.timeout(100.0)])
        log.append((sim.now, list(outcome.values())))

    sim.process(waiter(sim, done))
    sim.run(until=50.0)
    assert log == [(0.0, ["early"])]


def test_any_of_duplicate_events():
    sim = Simulator()
    t = sim.timeout(2.0)
    log = []

    def waiter(sim):
        outcome = yield AnyOf(sim, [t, t])
        log.append(list(outcome.items()))

    sim.process(waiter(sim))
    sim.run()
    assert log == [[(t, None)]]


def test_all_of_mixed_simulators_rejected():
    sim_a, sim_b = Simulator(), Simulator()
    event_a = sim_a.event()
    event_b = sim_b.event()
    with pytest.raises(SimulationError):
        sim_a.all_of([event_a, event_b])


# -- interrupts in primitive waits ------------------------------------------------------


def test_interrupt_while_waiting_on_store_get():
    sim = Simulator()
    store = Store(sim)
    log = []

    def consumer(sim, store):
        try:
            yield store.get()
        except Interrupt:
            log.append(("interrupted", sim.now))

    def interrupter(sim, victim):
        yield sim.timeout(3.0)
        victim.interrupt()

    victim = sim.process(consumer(sim, store))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [("interrupted", 3.0)]


def test_abandoned_get_still_consumes_item():
    """A get waiter abandoned after an interrupt still owns its slot in
    the queue — documents the FilterStore contract the clients rely on
    (which is why they filter by request id)."""
    sim = Simulator()
    store = FilterStore(sim)
    got = []

    def consumer(sim, store, tag):
        item = yield store.get(lambda x: x == tag)
        got.append((tag, item))

    sim.process(consumer(sim, store, "a"))
    sim.process(consumer(sim, store, "b"))
    store.put("b")
    store.put("a")
    sim.run()
    assert sorted(got) == [("a", "a"), ("b", "b")]


# -- event misc ------------------------------------------------------------------------


def test_defused_failure_does_not_crash():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("contained"))
    event.defused()
    sim.run()  # no raise


def test_undefused_failure_crashes_run():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("uncontained"))
    with pytest.raises(RuntimeError, match="uncontained"):
        sim.run()


def test_event_repr_states():
    sim = Simulator()
    event = sim.event()
    assert "pending" in repr(event)
    event.succeed()
    assert "triggered" in repr(event)
    sim.run()
    assert "processed" in repr(event)


def test_timeout_zero_fires_this_instant_after_queue_order():
    sim = Simulator()
    order = []

    def a(sim):
        yield sim.timeout(0)
        order.append("a")

    def b(sim):
        yield sim.timeout(0)
        order.append("b")

    sim.process(a(sim))
    sim.process(b(sim))
    sim.run()
    assert order == ["a", "b"]
    assert sim.now == 0.0


def test_process_failure_value_propagates_to_run_until():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("exploded")

    proc = sim.process(bad(sim))
    with pytest.raises(ValueError, match="exploded"):
        sim.run_until(proc)
