"""Hosts and the emulated network.

A :class:`Network` owns a set of named :class:`Host` objects, each with an
uplink and a downlink capacity, and moves byte payloads between them through
the max-min fair :class:`~repro.net.bandwidth.FlowScheduler`.  Propagation
latency is charged once per transfer before bytes start flowing.

A transfer is its completion event and nothing else — no process.  The
offline check runs inline, a latency wait (only when latency > 0) is one
timeout whose callback checks again, and the scheduler's wakeup dispatches
the very event ``transfer()`` returned in place when the last byte is
through: no kernel step of its own, only the settle and wakeup all
transfers of an instant share.  An abort fails that event with a
:class:`~repro.net.bandwidth.TransferAbortedError` naming route and size.

This replaces the paper's mininet testbed: the experiments there configure
per-host bandwidths (10 or 20 Mbps) and measure transfer and queueing
delays, which is exactly the fidelity this model provides.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Set

from ..obs.events import TransferAborted, TransferCompleted, TransferStarted
from ..sim import Event, Simulator
from .bandwidth import FlowScheduler, Link, TransferAbortedError


class Host:
    """A network endpoint with dedicated uplink/downlink capacities."""

    def __init__(self, name: str, up_bandwidth: float, down_bandwidth: float):
        self.name = name
        self.uplink = Link(f"{name}/up", up_bandwidth)
        self.downlink = Link(f"{name}/down", down_bandwidth)
        #: Telemetry counters (bytes).
        self.bytes_sent = 0.0
        self.bytes_received = 0.0

    @property
    def up_bandwidth(self) -> float:
        """Uplink capacity in bytes/second."""
        return self.uplink.capacity

    @property
    def down_bandwidth(self) -> float:
        """Downlink capacity in bytes/second."""
        return self.downlink.capacity

    def __repr__(self) -> str:
        return f"<Host {self.name}>"


class Network:
    """The emulated network: a set of hosts plus a shared flow scheduler."""

    def __init__(self, sim: Simulator, default_latency: float = 0.0):
        """
        Parameters
        ----------
        sim:
            The simulation kernel.
        default_latency:
            One-way propagation delay (seconds) applied to every transfer
            between two different hosts.
        """
        if default_latency < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.default_latency = default_latency
        self._hosts: Dict[str, Host] = {}
        self._scheduler = FlowScheduler(sim)
        #: Hosts whose links are currently down (fault injection).
        self._offline: Set[str] = set()

    # -- host management ------------------------------------------------------

    def add_host(self, name: str, up_bandwidth: float = math.inf,
                 down_bandwidth: Optional[float] = None) -> Host:
        """Register a host.  ``down_bandwidth`` defaults to ``up_bandwidth``."""
        if name in self._hosts:
            raise ValueError(f"host {name!r} already exists")
        if down_bandwidth is None:
            down_bandwidth = up_bandwidth
        host = Host(name, up_bandwidth, down_bandwidth)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        return self._hosts[name]

    def hosts(self) -> Iterable[Host]:
        """All registered hosts."""
        return self._hosts.values()

    def __contains__(self, name: str) -> bool:
        return name in self._hosts

    # -- fault surface (link state mutation) -----------------------------------

    def host_online(self, name: str) -> bool:
        """Whether ``name``'s links are currently up."""
        if name not in self._hosts:
            raise KeyError(f"no such host: {name!r}")
        return name not in self._offline

    def set_host_online(self, name: str, online: bool,
                        reason: str = "link down") -> None:
        """Bring a host's links up or down.

        Taking a host down aborts every in-flight flow crossing its
        uplink or downlink (their waiters see
        :class:`~repro.net.bandwidth.TransferAbortedError`) and refuses
        new transfers to/from it until it is brought back up.  Local
        loopback transfers (``src == dst``) keep working.
        """
        host = self._hosts[name]
        if online:
            self._offline.discard(name)
            return
        if name in self._offline:
            return
        self._offline.add(name)
        for flow in self._scheduler.abort_flows(
                (host.uplink, host.downlink), reason):
            self._publish_aborted(*flow.transfer, reason)

    # -- data movement ---------------------------------------------------------

    def latency(self, src: str, dst: str) -> float:
        """One-way propagation delay between two hosts."""
        if src == dst:
            return 0.0
        return self.default_latency

    def transfer(self, src: str, dst: str, size: float) -> Event:
        """Move ``size`` bytes from ``src`` to ``dst``.

        Returns an event firing when the last byte arrives.  Local
        transfers (``src == dst``) complete after zero time.  The transfer
        contends for the source uplink and the destination downlink under
        max-min fairness with all other in-flight transfers.
        """
        source = self._hosts[src]
        destination = self._hosts[dst]
        if size < 0:
            raise ValueError("transfer size must be non-negative")
        source.bytes_sent += size
        destination.bytes_received += size
        done = self.sim.event()
        bus = self.sim.bus
        if bus.wants(TransferStarted):
            bus.publish(TransferStarted(
                at=self.sim.now, src=src, dst=dst, size=size,
            ))
        if bus.wants(TransferCompleted):
            started = self.sim.now

            def flow_event(event):
                if not event._ok:
                    return  # aborted; TransferAborted already published
                bus.publish(TransferCompleted(
                    at=self.sim.now, src=src, dst=dst, size=size,
                    started_at=started,
                ))

            done._add_callback(flow_event)
        if src == dst:
            done.succeed(size)
        else:
            self._start(source, destination, size, done,
                        self.latency(src, dst))
        return done

    def _start(self, source: Host, destination: Host, size: float,
               done: Event, delay: float = 0.0) -> None:
        """Put the transfer on the wire ``delay`` from now, unless an end
        of it is down now — or by then."""
        src, dst = source.name, destination.name
        if src in self._offline or dst in self._offline:
            self._publish_aborted(src, dst, size, "host offline")
            done.fail(TransferAbortedError("host offline", src, dst, size))
        elif delay > 0:
            self.sim.timeout(delay)._add_callback(
                lambda _arrived: self._start(source, destination, size, done)
            )
        else:
            self._scheduler.start_flow(
                (source.uplink, destination.downlink), size, done,
                (src, dst, size),
            )

    def _publish_aborted(self, src: str, dst: str, size: float,
                         reason: str) -> None:
        bus = self.sim.bus
        if bus.wants(TransferAborted):
            bus.publish(TransferAborted(
                at=self.sim.now, src=src, dst=dst, size=size, reason=reason,
            ))

    # -- telemetry --------------------------------------------------------------

    @property
    def bytes_delivered(self) -> float:
        """Total bytes delivered network-wide since construction."""
        return self._scheduler.bytes_delivered

    @property
    def stale_wakeups(self) -> int:
        """Superseded scheduler wakeups that fired anyway (should stay 0
        while kernel timeout cancellation works)."""
        return self._scheduler.stale_wakeups

    @property
    def cancelled_wakeups(self) -> int:
        """Superseded scheduler wakeups removed from the kernel heap."""
        return self._scheduler.cancelled_wakeups

    @property
    def recomputed_flows(self) -> int:
        """Flows whose rate the scheduler re-solved, cumulative (one
        solve per busy simulated instant, over the touched component)."""
        return self._scheduler.recomputed_flows
