"""Unit tests for the discrete-event simulation kernel."""

import gc
import weakref

import pytest

from repro.sim import (
    Event,
    Interrupt,
    Simulator,
    Timeout,
)
from repro.sim.core import AllOf, AnyOf, Process, SimulationError

from tests.util import next_event_time


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    times = []

    def proc(sim):
        yield sim.timeout(5.0)
        times.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert times == [5.0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_processed_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.process(proc(sim, "late", 3.0))
    sim.process(proc(sim, "early", 1.0))
    sim.process(proc(sim, "middle", 2.0))
    sim.run()
    assert order == ["early", "middle", "late"]


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in ["a", "b", "c"]:
        sim.process(proc(sim, name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100.0)

    sim.process(proc(sim))
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_with_empty_queue_sets_clock():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_process_return_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return 99

    def parent(sim, results):
        value = yield sim.process(child(sim))
        results.append(value)

    results = []
    sim.process(parent(sim, results))
    sim.run()
    assert results == [99]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    event = sim.event()
    got = []

    def waiter(sim, event):
        value = yield event
        got.append((sim.now, value))

    def trigger(sim, event):
        yield sim.timeout(3.0)
        event.succeed("done")

    sim.process(waiter(sim, event))
    sim.process(trigger(sim, event))
    sim.run()
    assert got == [(3.0, "done")]


def test_event_double_trigger_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    event = sim.event()
    caught = []

    def waiter(sim, event):
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim, event))
    event.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_event_fail_requires_exception():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_unhandled_process_failure_propagates():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("explode")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="explode"):
        sim.run()


def test_failure_handled_by_parent_is_defused():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("explode")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError:
            caught.append(True)

    sim.process(parent(sim))
    sim.run()
    assert caught == [True]


def test_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_yield_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_wait_on_already_processed_event():
    """A process may yield an event that already fired and still proceed."""
    sim = Simulator()
    event = sim.event()
    event.succeed("old-value")
    got = []

    def late_waiter(sim, event):
        yield sim.timeout(5.0)
        value = yield event
        got.append((sim.now, value))

    sim.process(late_waiter(sim, event))
    sim.run()
    assert got == [(5.0, "old-value")]


def test_interrupt_raises_in_target():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.args))

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt("wake up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [(2.0, ("wake up",))]


def test_interrupted_process_can_wait_again():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(5.0)
        log.append(sim.now)

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [7.0]


def test_stale_wakeup_after_interrupt_is_ignored():
    """The original timeout firing after an interrupt must not resume twice."""
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(4.0)
            log.append("timeout")
        except Interrupt:
            log.append("interrupt")
        yield sim.timeout(100.0)

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run(until=50.0)
    assert log == ["interrupt"]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_process_cannot_interrupt_itself():
    sim = Simulator()
    caught = []

    def selfish(sim):
        yield sim.timeout(0)
        try:
            sim.active_process.interrupt()
        except SimulationError:
            caught.append(True)

    sim.process(selfish(sim))
    sim.run()
    assert caught == [True]


def test_all_of_waits_for_all():
    sim = Simulator()
    log = []

    def proc(sim):
        t1 = sim.timeout(1.0)
        t2 = sim.timeout(3.0)
        results = yield sim.all_of([t1, t2])
        log.append((sim.now, list(results) == [t1, t2]))

    sim.process(proc(sim))
    sim.run()
    assert log == [(3.0, True)]


def test_any_of_fires_on_first():
    sim = Simulator()
    log = []

    def proc(sim):
        t1 = sim.timeout(1.0)
        t2 = sim.timeout(3.0)
        results = yield sim.any_of([t1, t2])
        log.append((sim.now, list(results) == [t1]))

    sim.process(proc(sim))
    sim.run()
    assert log == [(1.0, True)]


def test_processed_event_keeps_no_heap_entry():
    """Entry and event refer to each other while queued; the kernel breaks
    that cycle on dispatch so reference counting frees what it touched."""
    sim = Simulator()
    timeout = sim.timeout(1.0)
    event = sim.event().succeed("v")
    assert timeout._heap_entry[3] is timeout and event._heap_entry is not None
    sim.run()
    assert timeout.processed and timeout._heap_entry is None
    assert event.processed and event._heap_entry is None


def test_any_of_detaches_from_the_loser_and_frees_the_winners_value():
    """After an AnyOf fires, the sub-event that lost no longer calls back
    into it, so nothing but the waiter holds the winner's value: it dies
    when the waiter drops it, with the collector off and the loser still
    queued."""
    class Payload:
        pass

    sim = Simulator()
    box = {}

    def proc(sim):
        winner = sim.event()
        box["loser"] = sim.timeout(100.0)
        box["condition"] = sim.any_of([winner, box["loser"]])
        payload = Payload()
        box["ref"] = weakref.ref(payload)
        winner.succeed(payload)
        del payload, winner
        outcome = yield box.pop("condition")
        assert isinstance(next(iter(outcome.values())), Payload)
        del outcome
        yield sim.timeout(1.0)  # moves the process off the condition
        box["alive_after_drop"] = box["ref"]() is not None

    gc.disable()
    try:
        sim.process(proc(sim))
        sim.run(until=50.0)
        assert box["alive_after_drop"] is False
        loser = box["loser"]
        assert not loser.processed and loser.callbacks == []
    finally:
        gc.enable()
    sim.run()
    assert loser.processed  # detached, not cancelled: it still fires


def test_all_of_values_and_trigger_order_unchanged():
    """The condition's value maps each sub-event to its value, in the
    order they fired — detaching losers changes none of that."""
    sim = Simulator()
    slow = sim.timeout(3.0)
    fast = sim.timeout(1.0)
    manual = sim.event()
    log = []

    def proc(sim):
        results = yield sim.all_of([slow, fast, manual])
        log.append((sim.now, list(results.items())))

    sim.process(proc(sim))
    sim.timeout(2.0)._add_callback(lambda _event: manual.succeed("manual"))
    sim.run()
    # Keyed in the order given; every value present; fires with the last.
    assert log == [(3.0, [(slow, None), (fast, None),
                          (manual, "manual")])]


def test_failed_condition_detaches_from_pending_sub_events():
    sim = Simulator()
    pending = sim.timeout(10.0)
    bad = sim.event()
    condition = sim.all_of([pending, bad])
    condition.defused()
    bad.fail(RuntimeError("bad"))
    sim.run(until=1.0)
    assert condition.processed and not condition.ok
    assert pending.callbacks == []


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    log = []

    def proc(sim):
        results = yield sim.all_of([])
        log.append((sim.now, results))

    sim.process(proc(sim))
    sim.run()
    assert log == [(0.0, {})]


def test_condition_failure_propagates():
    sim = Simulator()
    event = sim.event()
    caught = []

    def proc(sim, event):
        try:
            yield sim.all_of([sim.timeout(10.0), event])
        except RuntimeError:
            caught.append(sim.now)

    sim.process(proc(sim, event))
    event.fail(RuntimeError("bad"))
    sim.run()
    assert caught == [0.0]


def test_is_alive_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive
    assert p.ok


def test_peek_and_step():
    sim = Simulator()
    sim.timeout(4.0)
    assert next_event_time(sim) == 4.0
    sim.step()
    assert sim.now == 4.0
    assert next_event_time(sim) == float("inf")
    with pytest.raises(SimulationError):
        sim.step()


def test_nested_process_chain():
    sim = Simulator()

    def leaf(sim):
        yield sim.timeout(1.0)
        return 1

    def middle(sim):
        value = yield sim.process(leaf(sim))
        yield sim.timeout(1.0)
        return value + 1

    def root(sim, out):
        value = yield sim.process(middle(sim))
        out.append((sim.now, value + 1))

    out = []
    sim.process(root(sim, out))
    sim.run()
    assert out == [(2.0, 3)]


def test_process_name():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)

    p = sim.process(worker(sim), name="my-worker")
    assert p.name == "my-worker"
    assert "my-worker" in repr(p)


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Process(sim, lambda: None)


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def proc(sim, i):
        yield sim.timeout(float(i % 17))
        done.append(i)

    for i in range(500):
        sim.process(proc(sim, i))
    sim.run()
    assert sorted(done) == list(range(500))
