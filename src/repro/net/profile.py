"""Composable network/infrastructure profile for sessions.

:class:`NetworkProfile` bundles the shape and quality of the emulated
infrastructure into one reusable, comparable value::

    from repro import FLSession, NetworkProfile

    profile = NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0)
    session = FLSession(config, model_factory, datasets, network=profile)

It also owns the robustness knobs the fault-injection subsystem relies
on: the shared :class:`~repro.faults.RetryPolicy` and the request
timeouts that bound how long actors wait on a directory that a chaos
plan has browned out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..faults.retry import RetryPolicy


@dataclass(frozen=True)
class NetworkProfile:
    """The infrastructure half of a session: topology, bandwidth, DHT,
    replication, and retry/timeout policy.  ``NetworkProfile()`` is the
    default testbed (8 storage nodes on uniform 10 Mbps links).
    """

    #: Storage nodes in the deployment.
    num_ipfs_nodes: int = 8
    #: Uniform host bandwidth (Mbps), the paper's 10/20 Mbps testbeds.
    bandwidth_mbps: float = 10.0
    #: Override for aggregator hosts (None = same as ``bandwidth_mbps``).
    aggregator_bandwidth_mbps: Optional[float] = None
    #: Per-trainer overrides (None = uniform).
    trainer_bandwidths_mbps: Optional[Tuple[float, ...]] = None
    #: One-way propagation delay (seconds) per transfer.
    latency: float = 0.0
    #: Rendezvous replication factor (None = no replication cluster).
    replication_factor: Optional[int] = None

    # -- robustness (faults & churn) ------------------------------------------
    #: Shared retry policy for directory requests and block fetches.
    #: None means single attempt — the legacy behaviour, which keeps
    #: honest-run timings bit-identical; sessions running a fault plan
    #: default this to ``RetryPolicy()``.
    retry: Optional[RetryPolicy] = None
    #: Timeout (seconds) for one directory request attempt.  None means
    #: wait forever — the legacy behaviour, appropriate only on honest
    #: infrastructure; sessions running a fault plan default this to
    #: 15 s so a brown-out or outage cannot wedge an actor.
    directory_request_timeout: Optional[float] = None

    def __post_init__(self):
        if self.num_ipfs_nodes < 1:
            raise ValueError("num_ipfs_nodes must be >= 1")
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")
        if self.aggregator_bandwidth_mbps is not None \
                and self.aggregator_bandwidth_mbps <= 0:
            raise ValueError("aggregator_bandwidth_mbps must be positive")
        if self.trainer_bandwidths_mbps is not None:
            object.__setattr__(self, "trainer_bandwidths_mbps",
                               tuple(self.trainer_bandwidths_mbps))
            if any(b <= 0 for b in self.trainer_bandwidths_mbps):
                raise ValueError("trainer bandwidths must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.replication_factor is not None \
                and self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.directory_request_timeout is not None \
                and self.directory_request_timeout <= 0:
            raise ValueError("directory_request_timeout must be positive")
