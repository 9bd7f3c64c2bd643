"""Flow-level bandwidth sharing with max-min fairness.

This module models the first-order network effects the paper's mininet
testbed exhibits: a host's NIC capacity is shared among its concurrent
transfers, so a single IPFS provider serving sixteen trainers is a
bottleneck, while spreading uploads over four providers is not.

The model is *flow-level*: a transfer is a fluid flow with a remaining byte
count, and the set of concurrent flows receives a max-min fair allocation
subject to each host's uplink and downlink capacities (progressive-filling
algorithm).  Rates are solved **once per simulated instant**: a start,
finish, abort or capacity change only marks its links dirty and registers
one *settle* hook (``Simulator.at_instant_end``: after every event of that
timestamp), which re-solves the touched flows and re-arms the
next-completion wakeup (a cancellable kernel timeout, so superseded wakeups
leave the heap instead of polluting it; it dispatches the completion events
of the flows it finishes in place, in flow order; a change that empties the
network with no wakeup armed registers none).  No byte moves while the
clock stands still and a max-min allocation depends only on the flow set,
so N uploads starting together cost one solve over N flows instead of N
solves over 1..N — with the same rates and finish times, float for float.

Scaling
-------
The solve is *incremental*: a change can only move the allocation inside the
connected component of the flow-link bipartite graph it touches (max-min
progressive filling decomposes across components — rounds in one component
never read or write another's residual capacity).  The scheduler therefore
keeps a link -> flows index, finds the component of each flow on the
instant's dirty links by BFS and re-solves only those: in closed form
when it has fewer than two finite links (a directory poll), the rest in
one call of the one solver, :func:`max_min_rates`, in ``flow_id`` order —
the relative order a global recomputation would visit them — so the rates
are bit-identical to a global solve over all flows (there are property
tests for this).  Its bottleneck queue costs the flow-link incidences
times a heap operation and equals the full-scan progressive fill kept in
``tests/reference_max_min.py`` bit for bit.  See ``docs/SCALING.md``.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..sim import Event, Simulator, Timeout

#: Flows narrower than this (bytes) are treated as complete, guarding
#: against float round-off never quite reaching zero.
_EPSILON_BYTES = 1e-6


class TransferAbortedError(Exception):
    """A transfer died before its last byte (link outage, host offline).

    Raised into whoever waits on the transfer's completion event; the
    message layer treats it as a lost message (clients recover via
    timeout + retry).
    """

    def __init__(self, reason: str, src: Optional[str] = None,
                 dst: Optional[str] = None, size: Optional[float] = None):
        route = f" {src}->{dst}" if src and dst else ""
        amount = f" ({size:g}B)" if size is not None else ""
        super().__init__(f"transfer{route}{amount} aborted: {reason}")
        self.reason = reason
        self.src = src
        self.dst = dst
        self.size = size


class Link:
    """A unidirectional capacity constraint (one direction of a host NIC)."""

    __slots__ = ("name", "capacity")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ValueError(f"link {name!r} capacity must be positive")
        self.name = name
        self.capacity = float(capacity)

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.capacity:g} B/s>"


class Flow:
    """A fluid transfer crossing a set of links."""

    __slots__ = ("flow_id", "links", "remaining", "rate", "done", "total",
                 "transfer")

    def __init__(self, flow_id: int, links: Tuple[Link, ...], size: float,
                 done: Event, transfer: tuple = ()):
        self.flow_id = flow_id
        self.links = links
        self.total = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.done = done
        #: ``(src, dst, size)`` of the network transfer this flow carries:
        #: what an abort's :class:`TransferAbortedError` is built from.
        self.transfer = transfer

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.flow_id} {self.remaining:g}/{self.total:g}B"
            f" @{self.rate:g}B/s>"
        )


def _incidence(flows: Sequence[Flow]
               ) -> Tuple[List[float], List[List[int]], List[List[int]]]:
    """The links of ``flows`` in first-seen, flow-major order (the order a
    front-to-back bottleneck scan meets them in): their capacities, per
    link the positions of the flows crossing it (a flow listing a link
    twice appears twice) and per flow its link indices."""
    index: Dict[Link, int] = {}
    capacities: List[float] = []
    crossing: List[List[int]] = []
    flow_links: List[List[int]] = []
    for position, flow in enumerate(flows):
        ids = []
        for link in flow.links:
            i = index.get(link)
            if i is None:
                i = index[link] = len(capacities)
                capacities.append(link.capacity)
                crossing.append([])
            crossing[i].append(position)
            ids.append(i)
        flow_links.append(ids)
    return capacities, crossing, flow_links


def max_min_rates(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Compute the max-min fair rate allocation for ``flows``.

    Progressive filling: repeatedly take the most-contended link, give
    every unfrozen flow crossing it that link's equal share, freeze those
    flows and subtract their rates from the other links they cross.
    Links with infinite capacity never bottleneck; a flow crossing only
    infinite links gets an infinite rate (delivered instantaneously).

    Bottlenecks come off a heap keyed ``(residual / load, first-seen
    index)``, so a tie goes to the link a front-to-back scan meets first;
    an entry whose key is no longer its link's share is stale.  That
    costs the flow-link incidences times a heap operation, not
    bottlenecks times links, and equals the full scan kept in
    ``tests/reference_max_min.py`` bit for bit.
    """
    residual, crossing, flow_links = _incidence(flows)
    load = [len(members) for members in crossing]
    # Unfrozen flows hold inf: what a flow crossing only infinite links
    # (or none) keeps.
    rates = [math.inf] * len(flows)
    unfrozen = len(flows)
    queue = [(residual[i] / load[i], i) for i in range(len(residual))]
    heapq.heapify(queue)
    while unfrozen and queue:
        share, bottleneck = heapq.heappop(queue)
        count = load[bottleneck]
        if count == 0 or share != residual[bottleneck] / count:
            continue
        if share == math.inf:
            break
        touched = []
        for position in crossing[bottleneck]:
            if rates[position] != math.inf:
                continue  # frozen already (a link listed twice)
            rates[position] = share
            unfrozen -= 1
            for i in flow_links[position]:
                # Clamp: across many freeze rounds the subtraction drifts
                # and can leave a residual slightly below zero, handing
                # later flows a negative share.  Capacity can never be
                # negative, so floor at exact 0.0.  Every flow frozen here
                # subtracts the same share, so their order moves no float.
                remaining = residual[i] - share
                residual[i] = remaining if remaining > 0.0 else 0.0
                load[i] -= 1
                touched.append(i)
        for i in touched:
            if load[i]:
                heapq.heappush(queue, (residual[i] / load[i], i))
    return dict(zip(flows, rates))


def max_min_rates_vectorized(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Numpy formulation of the full-scan progressive fill, bit-identical
    to :func:`max_min_rates`.

    No simulation path calls it: it stays importable only because the
    benchmark's frozen tracer (``benchmarks/perf/trace.py``) imports it.
    """
    capacities, crossing, flow_links = _incidence(flows)
    if not capacities:
        return {flow: math.inf for flow in flows}
    residual = np.array(capacities, dtype=float)
    load = np.array([len(members) for members in crossing], dtype=np.int64)
    active = np.ones(len(flows), dtype=bool)
    rates = np.zeros(len(flows), dtype=float)
    remaining_active = len(flows)
    while remaining_active:
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(load > 0, residual / load, math.inf)
        bottleneck = int(np.argmin(share))
        bottleneck_share = float(share[bottleneck])
        if math.isinf(bottleneck_share):
            rates[active] = math.inf
            break
        for flow_idx in crossing[bottleneck]:
            if not active[flow_idx]:
                continue
            rates[flow_idx] = bottleneck_share
            active[flow_idx] = False
            remaining_active -= 1
            for link_id in flow_links[flow_idx]:
                # Sequential subtract-and-clamp, exactly as the scan.
                remaining = residual[link_id] - bottleneck_share
                residual[link_id] = remaining if remaining > 0.0 else 0.0
                load[link_id] -= 1
        residual[bottleneck] = 0.0
    return {flow: float(rates[i]) for i, flow in enumerate(flows)}


class FlowScheduler:
    """Drives a set of concurrent flows to completion on the simulator.

    Usage::

        done = scheduler.start_flow((uplink, downlink), size_bytes)
        yield done   # fires when the last byte is delivered
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._flows: List[Flow] = []
        #: Link -> {flow: None} index (dict-as-ordered-set, insertion =
        #: flow_id order).  Covers every link of every in-flight flow,
        #: including infinite-capacity ones (abort_flows looks those up).
        self._link_flows: Dict[Link, Dict[Flow, None]] = {}
        self._next_id = 0
        self._last_update = sim.now
        #: Links whose flow set or capacity changed since the last solve.
        self._dirty: List[Link] = []
        #: True while the end-of-instant hook that re-solves ``_dirty`` waits.
        self._settle_pending = False
        #: The armed next-completion wakeup.
        self._wakeup: Optional[Timeout] = None
        #: Total bytes delivered since construction (telemetry).
        self.bytes_delivered = 0.0
        #: Superseded wakeups that still fired (telemetry; stays 0 while
        #: kernel cancellation works — observable via repro.obs gauges).
        self.stale_wakeups = 0
        #: Superseded wakeups removed from the kernel heap before firing.
        self.cancelled_wakeups = 0
        #: Flows whose rate was re-solved, cumulative (telemetry: one
        #: solve per busy instant, over the touched component only).
        self.recomputed_flows = 0

    def start_flow(self, links: Tuple[Link, ...], size: float,
                   done: Optional[Event] = None,
                   transfer: tuple = ()) -> Event:
        """Begin transferring ``size`` bytes across ``links``.

        Returns the event that fires (with value ``size``) when delivery
        completes: ``done`` if the caller brought its own, else a new one.
        Zero-sized flows complete immediately.  ``transfer`` is the
        ``(src, dst, size)`` an abort reports in its error.
        """
        if size < 0:
            raise ValueError("flow size must be non-negative")
        if done is None:
            done = self.sim.event()
        if size <= _EPSILON_BYTES:
            done.succeed(size)
            return done
        self._advance()
        flow = Flow(self._next_id, tuple(links), size, done, transfer)
        self._next_id += 1
        self._flows.append(flow)
        for link in flow.links:
            self._link_flows.setdefault(link, {})[flow] = None
        self._touch(flow.links)
        return done

    def abort_flows(self, links: Iterable[Link],
                    reason: str = "link down") -> List[Flow]:
        """Fail every in-flight flow crossing any of ``links``.

        Each aborted flow's completion event fails with a
        :class:`TransferAbortedError`; survivors get re-allocated rates
        at the end of the instant.  Returns the aborted flows.
        """
        self._advance()
        # One pass over the dead links' indexed flows instead of
        # intersecting every in-flight flow's link set.
        doomed: Dict[Flow, None] = {}
        for link in links:
            for flow in self._link_flows.get(link, ()):
                doomed[flow] = None
        if not doomed:
            return []
        aborted = sorted(doomed, key=lambda flow: flow.flow_id)
        self._remove(aborted)
        for flow in aborted:
            flow.done.fail(TransferAbortedError(reason, *flow.transfer))
        return aborted

    def rates_changed(self, links: Iterable[Link]) -> None:
        """Re-allocate rates after the capacity of ``links`` was mutated.

        Progress up to now is accounted at the old rates; the new
        allocation and completion wakeup are installed by this
        instant's settle.
        """
        self._advance()
        self._touch(links)

    # -- internals ----------------------------------------------------------

    def _advance(self) -> None:
        """Account progress of all flows up to the current instant."""
        elapsed = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if elapsed <= 0:
            return
        if self._settle_pending:
            # The kernel runs the settle hook before it leaves its
            # timestamp; progress at unsettled rates would be wrong bytes.
            raise RuntimeError("clock advanced with a rate settle pending")
        for flow in self._flows:
            if math.isinf(flow.rate):
                flow.remaining = 0.0
            else:
                flow.remaining -= flow.rate * elapsed

    def _remove(self, flows: Sequence[Flow]) -> None:
        """Drop departed ``flows`` from the indexes; their links go dirty."""
        seeds: List[Link] = []
        for flow in flows:
            seeds.extend(flow.links)
            for link in flow.links:
                members = self._link_flows.get(link)
                if members is not None:
                    members.pop(flow, None)
                    if not members:
                        del self._link_flows[link]
        gone = set(flows)
        self._flows = [f for f in self._flows if f not in gone]
        if self._flows or self._wakeup is not None:  # else nothing to settle
            self._touch(seeds)

    def _touch(self, links: Iterable[Link]) -> None:
        """Mark ``links`` dirty and arm this instant's one settle.

        However many changes share a timestamp, only the allocation of the
        flow set they leave behind is ever used (no byte moves meanwhile):
        it is solved once, after the instant's last ordinary event.
        """
        self._dirty.extend(links)
        if not self._settle_pending:
            self._settle_pending = True
            self.sim.at_instant_end(self._settle)

    def _solve_dirty(self) -> Dict[Flow, float]:
        """Max-min rates of the components of the flows on dirty links.

        Components are taken over *finite* links only: an infinite-capacity
        link never bottlenecks, so it couples nothing, dirty or not (a
        shared directory host).  A component with no finite link runs at
        ``inf``, one with a single finite link at its capacity over its
        crossings: progressive filling's first round and, there, its last,
        so the solver's value to the bit.  The rest is pooled into one
        solve in flow_id order, the relative order a global recomputation
        would use.
        """
        link_flows = self._link_flows
        rates: Dict[Flow, float] = {}
        pooled: List[Flow] = []
        for link in dict.fromkeys(self._dirty):
            for seed in link_flows.get(link, ()):
                if seed in rates:
                    continue
                rates[seed] = math.inf  # seen; stays if no finite link
                component = [seed]
                finite: Set[Link] = set()
                crossings = 0
                for flow in component:  # grows while it is walked
                    for other in flow.links:
                        if other.capacity == math.inf:
                            continue
                        crossings += 1
                        if other not in finite:
                            finite.add(other)
                            for peer in link_flows[other]:
                                if peer not in rates:
                                    rates[peer] = math.inf  # seen
                                    component.append(peer)
                if len(finite) == 1:
                    share = finite.pop().capacity / crossings
                    for flow in component:
                        rates[flow] = share
                elif finite:
                    pooled.extend(component)
        if pooled:
            rates.update(max_min_rates(
                sorted(pooled, key=lambda flow: flow.flow_id)))
        return rates

    def _settle(self) -> None:
        """Install the instant's allocation and re-arm the wakeup."""
        self._settle_pending = False
        if self._wakeup is not None:
            if self._wakeup.cancel():
                self.cancelled_wakeups += 1
            self._wakeup = None
        rates = self._solve_dirty()
        self._dirty = []
        for flow, rate in rates.items():
            flow.rate = rate
        self.recomputed_flows += len(rates)
        if not self._flows:
            return
        next_finish = math.inf
        for flow in self._flows:
            if flow.rate <= 0:
                continue
            finish = 0.0 if math.isinf(flow.rate) else flow.remaining / flow.rate
            if finish < next_finish:
                next_finish = finish
        if math.isinf(next_finish):
            raise RuntimeError("active flows but no flow can make progress")
        self._wakeup = self.sim.timeout(max(next_finish, 0.0))
        self._wakeup._add_callback(self._on_wakeup)

    def _on_wakeup(self, event: Event) -> None:
        if event is not self._wakeup:
            # Should be unreachable: superseded wakeups are cancelled on
            # the kernel heap.  Counted, not silent, so heap pollution
            # regressions surface in telemetry.
            self.stale_wakeups += 1
            return
        self._wakeup = None
        self._advance()
        finished = [f for f in self._flows if f.remaining <= _EPSILON_BYTES]
        if not finished:
            # Sub-resolution guard: at aggregate-link rates (10^8+ B/s) a
            # flow's residual can sit just above the byte epsilon while
            # its finish time is below one float ulp of the clock — the
            # armed wakeup then fires at the *same* timestamp, elapsed
            # rounds to zero and no progress is ever made.  Deliver such
            # flows now; their residual is fluid-model round-off, far
            # below one real byte.
            now = self.sim.now
            for flow in self._flows:
                if flow.rate > 0.0 and now + flow.remaining / flow.rate == now:
                    flow.remaining = 0.0
            finished = [f for f in self._flows
                        if f.remaining <= _EPSILON_BYTES]
        self._remove(finished)
        for flow in finished:
            self.bytes_delivered += flow.total
            self.sim.dispatch_in_place(flow.done, flow.total)
