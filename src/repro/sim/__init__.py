"""Discrete-event simulation kernel (SimPy-style, dependency-free).

Public surface:

- :class:`Simulator` — the virtual clock and event queue.
- :class:`Event`, :class:`Timeout` — core event types; processes,
  ``all_of`` / ``any_of`` conditions and event priorities live in
  :mod:`repro.sim.core`.
- :class:`Interrupt` — exception thrown into interrupted processes.
- :class:`Store`, :class:`FilterStore` — waitable primitives.
"""

from .core import (
    Event,
    Interrupt,
    Simulator,
    Timeout,
)
from .primitives import FilterStore, Store

__all__ = [
    "Event",
    "FilterStore",
    "Interrupt",
    "Simulator",
    "Store",
    "Timeout",
]
