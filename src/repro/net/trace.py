"""Transfer tracing: a flow-level packet capture for the emulated network.

Attach a :class:`TransferTrace` to a :class:`~repro.net.network.Network`
and every transfer is recorded with its start/finish times, endpoints and
byte count — the raw material for timeline analysis of protocol runs
(who congested which link when), analogous to reading a pcap of the
paper's mininet experiments.

It is a subscriber over the network's event bus (``network.sim.bus``)
listening for :class:`~repro.obs.events.TransferCompleted`, so any
number of traces may attach and detach in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs.events import TransferCompleted
from .network import Network


@dataclass(frozen=True)
class TransferRecord:
    """One completed transfer."""

    src: str
    dst: str
    size: float
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class TransferTrace:
    """Records every transfer made through the observed network."""

    def __init__(self, network: Network):
        self.network = network
        self.records: List[TransferRecord] = []
        self._subscription = network.sim.bus.subscribe(
            self._on_completed, TransferCompleted
        )

    def detach(self) -> None:
        """Stop tracing.  Safe to call more than once; traces attached to
        the same network are independent and may detach in any order."""
        self._subscription.cancel()

    def _on_completed(self, event: TransferCompleted) -> None:
        self.records.append(TransferRecord(
            src=event.src, dst=event.dst, size=event.size,
            started_at=event.started_at,
            finished_at=event.at,
        ))

    # -- analysis helpers ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def total_bytes(self) -> float:
        return sum(record.size for record in self.records)

    def bytes_by_host(self) -> Dict[str, Dict[str, float]]:
        """Per-host ingress/egress: host -> {'in': bytes, 'out': bytes}."""
        totals: Dict[str, Dict[str, float]] = {}
        for record in self.records:
            totals.setdefault(record.src, {"in": 0.0, "out": 0.0})
            totals.setdefault(record.dst, {"in": 0.0, "out": 0.0})
            totals[record.src]["out"] += record.size
            totals[record.dst]["in"] += record.size
        return totals

    def busiest_host(self) -> Optional[str]:
        """The host moving the most bytes (in + out)."""
        totals = self.bytes_by_host()
        if not totals:
            return None
        return max(totals, key=lambda host: (
            totals[host]["in"] + totals[host]["out"]
        ))

    def window(self, start: float, end: float) -> List[TransferRecord]:
        """Transfers overlapping the time window [start, end]."""
        return [
            record for record in self.records
            if record.finished_at >= start and record.started_at <= end
        ]
