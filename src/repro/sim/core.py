"""Discrete-event simulation kernel.

This module provides a small, dependency-free discrete-event engine in the
style of SimPy.  Simulated activities are plain Python generator functions
("processes") that ``yield`` events; the :class:`Simulator` advances a virtual
clock and resumes each process when the event it waits on fires.

The kernel is the foundation for the network emulator (:mod:`repro.net`) and
the simulated IPFS network (:mod:`repro.ipfs`), which together replace the
mininet testbed used in the paper's evaluation.

A :meth:`Simulator.step` dispatches one queued event, then the events its
callbacks triggered through :meth:`Simulator.dispatch_in_place` in trigger
order, until one queued for this instant comes first (the rest are then
queued): where ``succeed`` would have run them.  It is for events that
only hand a value on: a finished flow's completion, a reply's keyed
getter and the reply, the directory's next request.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..obs.bus import EventBus

# Scheduling priorities: events scheduled at the same simulated time are
# processed in priority order, then in FIFO order of scheduling.  URGENT is
# kernel plumbing (process start, interrupts, late waiters), NORMAL is every
# ordinary event.  End-of-instant work (the flow scheduler's settle) is no
# event: see :meth:`Simulator.at_instant_end`.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

_PENDING = object()  # sentinel: event value not yet decided


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that was interrupted by another process.

    Its one argument (``args[0]``) is the cause passed to
    :meth:`Process.interrupt`.
    """


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *pending*; it becomes *triggered* once :meth:`succeed` or
    :meth:`fail` is called (which schedules it on the simulator queue) and
    *processed* once its callbacks have run.  Processes wait for an event by
    yielding it.

    Events are slotted: at 10^3 trainers the kernel allocates millions
    of them per run, and dropping the per-instance ``__dict__`` roughly
    halves their footprint.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused",
                 "_heap_entry")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set when a failure was delivered to at least one waiter, or
        #: explicitly via :meth:`defused`.  Undefused failures crash the run.
        self._defused = False
        #: The entry this event is queued under, so :meth:`Timeout.cancel`
        #: can tombstone it in O(1).  Cleared on dispatch: the two refer to
        #: each other, and only a collector pass frees what a cycle holds.
        self._heap_entry: Optional[list] = None

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception).  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event is not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, PRIORITY_NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, PRIORITY_NORMAL)
        return self

    def defused(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run via an urgent re-dispatch so late
            # waiters still observe the event.  The callback receives the
            # original event, not the dispatch proxy.
            proxy = Event(self.sim)
            proxy.callbacks.append(lambda _proxy: callback(self))
            proxy._ok = True
            proxy._value = None
            proxy._defused = True
            self.sim._schedule(proxy, PRIORITY_URGENT)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = None
        sim._schedule(self, PRIORITY_NORMAL, delay)

    def cancel(self) -> bool:
        """Remove this timeout from the simulator queue before it fires.

        Returns True if the timeout was pending and is now dead, False if
        it already fired (or was already cancelled).  Cancellation is O(1):
        the queue entry is tombstoned in place and skipped (or compacted
        away) by the kernel, so cancelled wakeups no longer pollute the
        heap.  Its callbacks are dropped, so only cancel timeouts nothing
        waits on — a process that yielded this one would never be resumed.
        """
        entry = self._heap_entry
        if entry is None:
            return False  # already dispatched, or already cancelled
        entry[3] = None
        self._heap_entry = None
        self.callbacks.clear()
        # Back to "pending" so `triggered` reflects that it never fired.
        self._value = _PENDING
        self._ok = None
        self.sim._tombstoned()
        return True


class Initialize(Event):
    """Internal event that starts a new process on the next kernel step."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        sim._schedule(self, PRIORITY_URGENT)


class Process(Event):
    """A running process.  Also an event that fires when the process ends.

    The wrapped generator yields :class:`Event` instances; the process is
    resumed with the event's value (or the failure exception is thrown into
    the generator).  The process event succeeds with the generator's return
    value.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits on (None while running).
        self._target: Optional[Event] = None
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the process has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process is resumed immediately (at the current simulated time),
        no longer waiting for its previous target event.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.sim.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._deliver_interrupt)
        self.sim._schedule(interrupt_event, PRIORITY_URGENT)

    def _deliver_interrupt(self, event: Event) -> None:
        """Detach from the current wait target and throw the interrupt."""
        if not self.is_alive:
            # The process ended before the interrupt arrived; drop it.
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Resume the generator with the outcome of ``event``."""
        if not self.is_alive:
            return
        if self._target is not None and event is not self._target:
            # Stale wakeup from an event this process no longer waits on.
            return
        self.sim._active_process = self
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                event._defused = True
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._target = None
            self._ok = True
            self._value = stop.value
            self.sim._schedule(self, PRIORITY_NORMAL)
            return
        except BaseException as exc:
            self._target = None
            self._ok = False
            self._value = exc
            self._defused = False
            self.sim._schedule(self, PRIORITY_NORMAL)
            return
        finally:
            self.sim._active_process = None

        if not isinstance(next_target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {next_target!r}"
            )
        self._target = next_target
        callbacks = next_target.callbacks
        if callbacks is None:
            next_target._add_callback(self._resume)
        else:
            callbacks.append(self._resume)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'ended'}>"


class Condition(Event):
    """An event that fires when a predicate over its sub-events holds.

    The condition's value is a dict mapping each *triggered* sub-event to its
    value, in trigger order.  A failing sub-event fails the condition.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 evaluate: Callable[[int, int], bool]):
        super().__init__(sim)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self._events:
            if not isinstance(event, Event):
                raise SimulationError(f"{event!r} is not an Event")
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        if not self._events or self._evaluate(len(self._events), 0):
            self.succeed(self._collect())
        else:
            for event in self._events:
                event._add_callback(self._check)

    def _collect(self) -> dict:
        # Only events whose callbacks already ran count as "happened";
        # a Timeout is `triggered` at construction (its value is pre-set)
        # but has not occurred until the kernel processes it.
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self._count += 1
            if not self._evaluate(len(self._events), self._count):
                return
            self.succeed(self._collect())
        # Decided: detach from the sub-events still pending, so a loser that
        # stays queued or waited on keeps neither this event nor its value.
        for other in self._events:
            if other.callbacks and self._check in other.callbacks:
                other.callbacks.remove(self._check)


class AllOf(Condition):
    """Condition that fires once *all* sub-events have fired."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, lambda total, done: done == total)


class AnyOf(Condition):
    """Condition that fires once *any* sub-event has fired."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, lambda total, done: done >= 1)


class Simulator:
    """The simulation environment: virtual clock plus event queue."""

    def __init__(self):
        self._now = 0.0
        #: Heap of [time, priority, seq, event] entries.  Entries are lists
        #: so cancellation can tombstone them in place (event slot -> None);
        #: the unique seq guarantees comparisons never reach the event.
        self._queue: List[list] = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        #: Live tombstone count; when tombstones dominate, the queue is
        #: compacted so cancelled bulk schedules cannot leak memory.
        self._tombstones = 0
        #: One-shot callbacks for the end of the current instant, FIFO.
        self._instant_end: deque = deque()
        #: True while a step runs an event's callbacks.
        self._dispatching = False
        #: Heap entries of the events triggered in place, in trigger order.
        self._in_place: deque = deque()
        #: The simulation's observability spine: everything built on this
        #: kernel (network, IPFS, protocol roles) publishes typed events
        #: here; telemetry/tracing subscribe.  See :mod:`repro.obs`.
        self.bus = EventBus()

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        event = Event.__new__(Event)  # the slots, without __init__'s call
        event.sim, event.callbacks, event._value = self, [], _PENDING
        event._ok, event._defused, event._heap_entry = None, False, None
        return event

    def timeout(self, delay: float) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay)

    def at_instant_end(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once no event of this instant is left
        queued (also those scheduled later), before the clock moves.  One
        hook per :meth:`step`, first in, first out: events a hook
        schedules for now run before the next hook."""
        self._instant_end.append(callback)

    def timeout_many(self, delays: Iterable[float]) -> List[Timeout]:
        """Create one timeout per delay in a single bulk schedule.

        Semantically identical to ``[sim.timeout(d) for d in delays]``
        (including FIFO tie-breaking by construction order), but batches the
        queue insertion: a large batch is appended and re-heapified in one
        pass instead of sifting each entry individually.  Used for
        fleet-wide schedules (e.g. one wakeup per trainer).
        """
        timeouts: List[Timeout] = []
        entries: List[list] = []
        for delay in delays:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            timeout = Timeout.__new__(Timeout)
            Event.__init__(timeout, self)
            timeout.delay = delay
            timeout._ok = True
            timeout._value = None
            entry = [self._now + delay, PRIORITY_NORMAL, next(self._seq),
                     timeout]
            timeout._heap_entry = entry
            entries.append(entry)
            timeouts.append(timeout)
        if len(entries) >= 8 and len(entries) * 4 >= len(self._queue):
            self._queue.extend(entries)
            heapq.heapify(self._queue)
        else:
            for entry in entries:
                heapq.heappush(self._queue, entry)
        return timeouts

    def dispatch_in_place(self, event: Event, value: Any = None) -> None:
        """:meth:`Event.succeed`, dispatched inside the current step
        rather than in one of its own (see the module docstring);
        outside a dispatch it *is* ``succeed``."""
        if not self._dispatching:
            event.succeed(value)
            return
        if event._value is not _PENDING:
            raise SimulationError(f"{event!r} already triggered")
        event._ok, event._value = True, value
        self._in_place.append(
            [self._now, PRIORITY_NORMAL, next(self._seq), event])

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a new process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any event in ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        entry = [self._now + delay, priority, next(self._seq), event]
        event._heap_entry = entry
        heapq.heappush(self._queue, entry)

    def _tombstoned(self) -> None:
        """Account a cancelled entry; compact once tombstones dominate."""
        self._tombstones += 1
        queue = self._queue
        if self._tombstones > 64 and self._tombstones * 2 > len(queue):
            # In place: a loop may hold the heap in a local.
            queue[:] = [e for e in queue if e[3] is not None]
            heapq.heapify(queue)
            self._tombstones = 0

    def _purge_head(self) -> None:
        """Drop cancelled entries from the front of the queue."""
        queue = self._queue
        while queue and queue[0][3] is None:
            heapq.heappop(queue)
            self._tombstones -= 1

    def step(self) -> None:
        """Process the next queued event (and the events its callbacks
        dispatch in place), or the next end-of-instant hook once no event
        of this instant is left."""
        queue = self._queue
        if self._instant_end:
            self._purge_head()
            if not queue or queue[0][0] > self._now:
                self._instant_end.popleft()()
                return
        while True:
            if not queue:
                raise SimulationError("no scheduled events")
            entry = heapq.heappop(queue)
            event = entry[3]
            if event is not None:
                break
            self._tombstones -= 1
        self._now = entry[0]
        event._heap_entry = None  # break the entry <-> event cycle
        in_place = self._in_place
        self._dispatching = True
        try:
            while True:
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    exc = event._value
                    raise exc
                if not in_place:
                    break
                if queue and queue[0] < in_place[0]:
                    self._purge_head()  # a cancelled entry is no event
                    if queue and queue[0] < in_place[0]:
                        break  # queued for this instant ahead of it
                event = in_place.popleft()[3]
        finally:
            self._dispatching = False
            while in_place:  # the rest waits its turn on the heap
                entry = in_place.popleft()
                entry[3]._heap_entry = entry
                heapq.heappush(queue, entry)

    def run_until(self, event: Event) -> None:
        """Process events until ``event`` has been processed.

        Unlike :meth:`run`, this stops as soon as the awaited event's
        callbacks ran, leaving later-scheduled events on the queue — the
        clock then reflects the event's time, not the queue drain.
        """
        queue, hooks = self._queue, self._instant_end
        while event.callbacks is not None:
            if not hooks and (not queue or queue[0][3] is None):
                self._purge_head()
                if not queue:
                    raise SimulationError(
                        "deadlock: awaited event can never fire"
                    )
            self.step()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given and the queue has not drained by then, the
        clock is advanced exactly to ``until``.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        while True:
            self._purge_head()
            if not self._instant_end:
                if not self._queue:
                    break
                if until is not None and self._queue[0][0] > until:
                    self._now = until
                    return
            self.step()
        if until is not None:
            self._now = until
