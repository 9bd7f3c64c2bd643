"""Deterministic fault injection and churn (``repro.faults``).

The paper's deployment argument (Sec. III: aggregator takeover, IPFS
replication, the directory as the only trusted component) is about
behaviour *under churn* — yet the seed repo only ever exercised honest
infrastructure.  This package makes failure a first-class, reproducible
input:

- :class:`FaultPlan` / :class:`FaultSpec` — a pure-data schedule of
  faults (participant crashes, link outages, directory brown-outs),
  loaded from JSON.
- :class:`FaultInjector` — the sim process that executes a plan against
  a session, announcing every fault on the event bus.
- :class:`RetryPolicy` / :class:`RetryExhaustedError` — the shared
  bounded-backoff policy protocol actors use to ride out fault windows.

Sessions take plans directly::

    from repro import FLSession, FaultPlan, FaultSpec

    plan = FaultPlan([
        FaultSpec(kind="crash_aggregator", at=1.0, target="aggregator-0"),
        FaultSpec(kind="link_down", at=3.0, duration=30.0,
                  target="trainer-1"),
    ], seed=7)
    session = FLSession(config, model_factory, datasets, faults=plan)
"""

from .injector import FaultInjector
from .plan import FAULT_KINDS, FaultPlan, FaultSpec
from .retry import RetryExhaustedError, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryExhaustedError",
    "RetryPolicy",
]
