"""Discrete-event simulation kernel (SimPy-style, dependency-free).

Public surface:

- :class:`Simulator` — the virtual clock and event queue.
- :class:`Event`, :class:`Timeout`, :class:`Process` — core event types.
- :class:`AllOf` / :class:`AnyOf` — condition events.
- :class:`Interrupt` — exception thrown into interrupted processes.
- ``PRIORITY_URGENT`` / ``PRIORITY_NORMAL`` — order of events sharing a
  timestamp; :meth:`Simulator.at_instant_end` runs work after all of them.
- :class:`Store`, :class:`FilterStore` — waitable primitives.
"""

from .core import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .primitives import FilterStore, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "FilterStore",
    "Interrupt",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
