"""Deterministic fault injection and churn (``repro.faults``).

The paper's deployment argument (Sec. III: aggregator takeover, IPFS
replication, the directory as the only trusted component) is about
behaviour *under churn* — yet the seed repo only ever exercised honest
infrastructure.  This package makes failure a first-class, reproducible
input:

- :class:`FaultPlan` — a pure-data schedule of faults (participant
  crashes, link outages, directory brown-outs), loaded from JSON; each
  entry is a :class:`~repro.faults.plan.FaultSpec`.
- :class:`FaultInjector` — the sim process that executes a plan against
  a session, announcing every fault on the event bus.
- :class:`RetryPolicy` / :class:`RetryExhaustedError` — the shared
  bounded-backoff policy protocol actors use to ride out fault windows.

Sessions take plans directly::

    from repro import FLSession, FaultPlan

    plan = FaultPlan.from_dict({"specs": [
        {"kind": "crash_aggregator", "at": 1.0, "target": "aggregator-0"},
        {"kind": "link_down", "at": 3.0, "duration": 30.0,
         "target": "trainer-1"},
    ]})
    session = FLSession(config, model_factory, datasets, faults=plan)
"""

from .injector import FaultInjector
from .plan import FaultPlan
from .retry import RetryExhaustedError, RetryPolicy

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "RetryExhaustedError",
    "RetryPolicy",
]
