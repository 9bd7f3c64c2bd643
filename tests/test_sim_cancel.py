"""Indexed scheduler: Timeout cancellation, tombstones, timeout_many.

The scaling refactor gave the kernel true cancellation — a cancelled
:class:`Timeout` is tombstoned in place and purged from the heap —
plus a batch ``timeout_many`` for fleet-wide schedules.  These tests
pin the semantics the :class:`~repro.net.bandwidth.FlowScheduler`
relies on (a superseded wakeup must never fire).
"""

import pytest

from repro.sim import FilterStore, SimulationError, Simulator

from tests.util import next_event_time


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timeout = sim.timeout(1.0, value="a")
    timeout._add_callback(lambda event: fired.append(event.value))
    assert timeout.cancel()
    sim.timeout(2.0)  # keep the run non-empty
    sim.run()
    assert fired == []
    assert sim.now == 2.0


def test_cancel_is_idempotent_and_reports_outcome():
    sim = Simulator()
    timeout = sim.timeout(1.0)
    assert timeout.cancel() is True
    assert timeout.cancel() is False  # already cancelled


def test_cancel_after_processing_fails():
    sim = Simulator()
    timeout = sim.timeout(1.0)
    sim.run()
    assert timeout.processed
    assert timeout.cancel() is False


def test_cancelled_timeout_can_be_rescheduled_conceptually():
    """Cancelling one wakeup and arming a new one is the scheduler's
    re-arm pattern; the new timeout is independent."""
    sim = Simulator()
    fired = []
    stale = sim.timeout(5.0, value="stale")
    stale._add_callback(lambda event: fired.append(event.value))
    assert stale.cancel()
    fresh = sim.timeout(1.0, value="fresh")
    fresh._add_callback(lambda event: fired.append(event.value))
    sim.run()
    assert fired == ["fresh"]
    assert sim.now == 1.0


def test_cancelled_timeout_references_nothing():
    """A dead timeout keeps neither its heap entry nor its callbacks, so
    whatever those callbacks closed over dies with the last caller-side
    reference — not when the tombstone is finally compacted away."""
    sim = Simulator()
    timeout = sim.timeout(5.0)
    timeout._add_callback(lambda event: None)
    assert timeout.cancel()
    assert timeout.callbacks == []
    assert timeout._heap_entry is None
    assert not timeout.triggered and not timeout.processed


def test_peek_skips_tombstones():
    sim = Simulator()
    near = sim.timeout(1.0)
    sim.timeout(3.0)
    assert next_event_time(sim) == 1.0
    near.cancel()
    assert next_event_time(sim) == 3.0


def test_run_terminates_when_only_tombstones_remain():
    sim = Simulator()
    timeouts = [sim.timeout(float(i + 1)) for i in range(5)]
    for timeout in timeouts:
        timeout.cancel()
    sim.run()  # must not step into a tombstone or hang
    assert sim.now == 0.0


def test_step_raises_on_tombstone_only_queue():
    sim = Simulator()
    sim.timeout(1.0).cancel()
    with pytest.raises(SimulationError):
        sim.step()


def test_tombstone_compaction_bounds_the_heap():
    """Mass cancellation compacts the heap instead of letting dead
    entries dominate it."""
    sim = Simulator()
    timeouts = [sim.timeout(float(i + 1)) for i in range(300)]
    keeper = sim.timeout(1000.0)
    for timeout in timeouts:
        timeout.cancel()
    # Compaction triggered along the way: far fewer entries than the
    # 301 scheduled, and the survivor still fires at the right time.
    assert len(sim._queue) < 100
    sim.run()
    assert keeper.processed
    assert sim.now == 1000.0


def test_timeout_many_matches_individual_timeouts():
    delays = [3.0, 1.0, 2.0, 1.0]
    batch_order = []
    loop_order = []

    sim_batch = Simulator()
    for index, timeout in enumerate(sim_batch.timeout_many(delays)):
        timeout._add_callback(
            lambda event, index=index: batch_order.append(
                (sim_batch.now, index))
        )
    sim_batch.run()

    sim_loop = Simulator()
    for index, delay in enumerate(delays):
        sim_loop.timeout(delay)._add_callback(
            lambda event, index=index: loop_order.append(
                (sim_loop.now, index))
        )
    sim_loop.run()

    assert batch_order == loop_order
    assert batch_order == [(1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0)]


def test_timeout_many_bulk_path_heapifies_correctly():
    """A large batch takes the extend+heapify path; order still holds."""
    sim = Simulator()
    fired = []
    delays = [float(100 - i) for i in range(100)]
    for timeout in sim.timeout_many(delays, value="tick"):
        timeout._add_callback(lambda event: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == 100
    assert sim.now == 100.0


def test_timeout_many_values_and_cancel():
    sim = Simulator()
    timeouts = sim.timeout_many([1.0, 2.0], value=7)
    assert timeouts[1].cancel()
    sim.run()
    assert timeouts[0].value == 7
    assert not timeouts[1].processed


def test_timeout_many_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout_many([1.0, -0.5])


def test_timeout_many_empty_is_fine():
    sim = Simulator()
    assert sim.timeout_many([]) == []


def test_processes_still_wait_on_cancelled_peers_timeouts():
    """A process yielding an uncancelled timeout is unaffected by other
    cancellations interleaved in the same heap."""
    sim = Simulator()
    log = []

    def waiter():
        yield sim.timeout(2.0)
        log.append(sim.now)

    doomed = [sim.timeout(0.5), sim.timeout(1.0), sim.timeout(1.5)]
    sim.process(waiter())
    for timeout in doomed:
        timeout.cancel()
    sim.run()
    assert log == [2.0]


def test_getter_that_lost_to_a_timeout_still_swallows_a_late_put():
    """A FilterStore getter abandoned by its AnyOf stays queued: a late
    matching put is consumed by it (and dropped), not left in the store.
    Request/response relies on this to keep inboxes from accumulating
    replies that arrive after their deadline."""
    sim = Simulator()
    store = FilterStore(sim)
    outcomes = []

    def waiter():
        getter = store.get(lambda item: item == "reply")
        deadline = sim.timeout(1.0)
        outcome = yield sim.any_of([getter, deadline])
        outcomes.append((getter in outcome, deadline in outcome))
        assert getter.callbacks == []  # detached from the fired condition

    sim.process(waiter())
    sim.timeout(2.0)._add_callback(lambda _event: store.put("reply"))
    sim.timeout(2.0)._add_callback(lambda _event: store.put("other"))
    sim.run()
    assert outcomes == [(False, True)]
    assert store.items == ["other"]


def test_compaction_mid_run_until_keeps_the_heap_it_drains():
    """A callback that cancels more than 64 timeouts compacts the heap
    while ``run_until`` is walking it: the compaction rewrites that same
    list, so the loop neither misses the survivor nor reads a drained
    stale copy as a deadlock."""
    sim = Simulator()
    doomed = [sim.timeout(10.0 + i) for i in range(200)]
    queue = sim._queue
    survivor = sim.timeout(500.0)
    sim.timeout(1.0)._add_callback(
        lambda _event: [timeout.cancel() for timeout in doomed])
    sim.run_until(survivor)
    assert sim._queue is queue
    assert sim.now == 500.0 and survivor.processed
    assert sim._tombstones < 64


def test_run_until_on_a_queue_of_tombstones_reports_the_deadlock():
    sim = Simulator()
    sim.timeout(1.0).cancel()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until(sim.event())
