"""Content routing: a simulated DHT of provider records.

The real IPFS network resolves "who has CID x?" through a Kademlia DHT
with O(log n) hop lookups.  We model the outcome — a provider-record table
with a configurable lookup delay — because the protocol only depends on
*finding* providers and on the latency of doing so, not on routing-table
internals (at the paper's 8-16 storage nodes a routed lookup is one hop
every time; EXPERIMENTS.md, "One DHT — the number").  A record lives
until its node withdraws it: a round's objects are all fetched long
before a real provider record would expire.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from ..obs.events import DhtLookup
from ..sim import Simulator
from .cid import CID

__all__ = ["DHT"]


class DHT:
    """A global provider-record table with simulated lookup latency."""

    def __init__(self, sim: Simulator, lookup_delay: float = 0.05,
                 seed: int = 0):
        """
        Parameters
        ----------
        sim:
            Simulation kernel (for the clock and lookup delays).
        lookup_delay:
            Simulated seconds per :meth:`find_providers` query (a DHT walk
            costs a few round trips even on a fast network).
        seed:
            Seed for the provider-shuffling RNG, for reproducible runs.
        """
        if lookup_delay < 0:
            raise ValueError("lookup_delay must be non-negative")
        self.sim = sim
        self.lookup_delay = lookup_delay
        #: CID -> the nodes advertising it.
        self._records: Dict[CID, Set[str]] = {}
        self._rng = random.Random(seed)

    def provide(self, cid: CID, node: str) -> None:
        """Advertise that ``node`` stores ``cid`` (instant, local op)."""
        self._records.setdefault(cid, set()).add(node)

    def unprovide(self, cid: CID, node: str) -> None:
        """Withdraw an advertisement (e.g. after garbage collection)."""
        providers = self._records.get(cid)
        if providers:
            providers.discard(node)
            if not providers:
                del self._records[cid]

    def providers_snapshot(self, cid: CID) -> List[str]:
        """Current providers without charging lookup delay (tests)."""
        return sorted(self._records.get(cid, ()))

    def find_providers(self, cid: CID, limit: Optional[int] = None,
                       querier: Optional[str] = None):
        """Process generator: resolve ``cid`` to a shuffled provider list.

        Usage: ``providers = yield from dht.find_providers(cid)``.
        Charges :attr:`lookup_delay` of simulated time per call.
        ``querier`` names the asking host in the published event.
        """
        started = self.sim.now
        if self.lookup_delay > 0:
            yield self.sim.timeout(self.lookup_delay)
        names = self.providers_snapshot(cid)
        self._rng.shuffle(names)
        if limit is not None:
            names = names[:limit]
        bus = self.sim.bus
        if bus.wants(DhtLookup):
            bus.publish(DhtLookup(
                at=self.sim.now, querier=querier, cid=cid,
                providers=len(names), hops=0, started_at=started,
            ))
        return names
