"""The traced run: per-layer self time and exact counts, from outside.

The tracer is ``cProfile``: every call is a span (callee, caller, time),
kept in memory and folded when the run ends.  A function's own time
belongs to the ``repro.<package>`` that defines it; builtins, numpy and
hashlib have no package, so their time is charged through the callers
table to the package that called them.  The result is exclusive: the
layers' ``self_s`` add up to the profiled time.

Exact counts are taken at the same boundaries, three ways: calls of a
named function (from the profile), attributes the layers keep
themselves, and ``CountersRegistry`` counters.  A function, attribute or
counter name that no longer exists raises — a renamed symbol must never
read as "0 calls".
"""

from __future__ import annotations

import cProfile
import inspect
import re
from typing import Dict

from repro.core.verification import PartitionCommitter
from repro.ml import compute_gradient, local_update
from repro.net.bandwidth import max_min_rates, max_min_rates_vectorized
from repro.obs import CountersRegistry
from repro.sim import Simulator, Timeout

__all__ = ["LAYERS", "Tracer", "exact_counts"]

LAYERS = ("sim", "net", "ipfs", "crypto", "ml", "core", "obs", "faults")
_LAYER_OF_PATH = re.compile(r"/repro/(\w+)/")
_COUNTER_SOURCE = inspect.getsource(CountersRegistry)


def _layer_of(function) -> str | None:
    match = _LAYER_OF_PATH.search(function[0])
    if match is None:
        return None
    return match.group(1) if match.group(1) in LAYERS else "other"


class Tracer:
    """``cProfile`` around the rounds, folded into layers afterwards."""

    def __init__(self):
        self._profile = cProfile.Profile()
        self._stats = None
        self.enable = self._profile.enable
        self.disable = self._profile.disable

    @property
    def stats(self) -> dict:
        """function -> (primitive calls, calls, self s, total s, callers)
        with callers: function -> (calls, primitive calls, self s,
        total s) spent in the callee on behalf of that caller."""
        if self._stats is None:
            self._profile.create_stats()
            self._stats = self._profile.stats
        return self._stats

    def calls(self, *functions) -> int:
        """Total calls of the given Python functions during the run."""
        total = 0
        for function in functions:
            code = function.__code__
            entry = self.stats.get(
                (code.co_filename, code.co_firstlineno, code.co_name))
            total += entry[1] if entry is not None else 0
        return total

    def _owners(self, function, memo, visiting) -> Dict[str, float]:
        """The layers on whose behalf ``function`` ran, as shares."""
        layer = _layer_of(function)
        if layer is not None:
            return {layer: 1.0}
        if function in memo:
            return memo[function]
        callers = self.stats.get(function, (0, 0, 0, 0, {}))[4]
        weight = sum(edge[3] for edge in callers.values())
        if not callers or weight <= 0 or function in visiting:
            return {"other": 1.0}
        visiting.add(function)
        owners: Dict[str, float] = {}
        for caller, edge in callers.items():
            for owner, share in self._owners(caller, memo,
                                             visiting).items():
                owners[owner] = owners.get(owner, 0.0) \
                    + share * edge[3] / weight
        visiting.discard(function)
        memo[function] = owners
        return owners

    def fold(self) -> dict:
        """Self seconds and inbound boundary calls per layer."""
        self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
        calls_in = dict.fromkeys(LAYERS + ("other",), 0)
        boundaries: Dict[str, int] = {}
        memo: dict = {}
        for function, (_, _, own, _, callers) in self.stats.items():
            layer = _layer_of(function)
            if layer is not None:
                self_s[layer] += own
                for caller, edge in callers.items():
                    source = _layer_of(caller)
                    if source != layer:
                        calls_in[layer] += edge[0]
                        key = f"{source or 'extern'}->{layer}"
                        boundaries[key] = boundaries.get(key, 0) + edge[0]
                continue
            if not callers:
                self_s["other"] += own
            for caller, edge in callers.items():
                for owner, share in self._owners(caller, memo,
                                                 set()).items():
                    self_s[owner] += edge[2] * share
        return {"self_s": self_s, "calls_in": calls_in,
                "boundaries": dict(sorted(boundaries.items()))}


def _counter(counters: CountersRegistry, name: str) -> int:
    if f'"{name}"' not in _COUNTER_SOURCE:
        raise LookupError(f"CountersRegistry no longer counts {name!r}")
    return int(counters.get(name))


def exact_counts(tracer: Tracer, session, counters, registry,
                 watchdog) -> Dict[str, float]:
    """Work counts per layer; identical run to run for a fixed seed."""
    scheduler = session.testbed.network._scheduler
    recomputes = tracer.calls(max_min_rates, max_min_rates_vectorized)
    counts = {
        "sim.steps": tracer.calls(Simulator.step),
        "sim.timeouts": tracer.calls(Simulator.timeout,
                                     Simulator.timeout_many),
        "sim.processes": tracer.calls(Simulator.process),
        "sim.cancels": tracer.calls(Timeout.cancel),
        "net.transfers": _counter(counters, "net.transfers"),
        "net.transfers_aborted": _counter(counters,
                                          "net.transfers_aborted"),
        "net.recomputes": recomputes,
        "net.recomputed_flows": scheduler.recomputed_flows,
        "net.stale_wakeups": scheduler.stale_wakeups,
        "net.cancelled_wakeups": scheduler.cancelled_wakeups,
        "ipfs.objects_stored": _counter(counters, "ipfs.objects_stored"),
        "ipfs.bytes_stored": _counter(counters, "ipfs.bytes_stored"),
        "ipfs.fetches": _counter(counters, "ipfs.fetches"),
        "ipfs.bytes_fetched": _counter(counters, "ipfs.bytes_fetched"),
        "ipfs.merges_served": _counter(counters, "ipfs.merges_served"),
        "ipfs.dht_lookups": _counter(counters, "dht.lookups"),
        "ipfs.dht_hops": _counter(counters, "dht.hops"),
        "crypto.commits": tracer.calls(
            PartitionCommitter.encode_and_commit),
        "crypto.verifies": _counter(counters, "protocol.updates_verified"),
        "crypto.verify_failures": _counter(
            counters, "protocol.verification_failures"),
        "ml.train_calls": tracer.calls(compute_gradient, local_update),
        "core.dir_requests": _counter(counters, "directory.requests"),
        "core.gradients_registered": _counter(
            counters, "protocol.gradients_registered"),
        "core.updates_registered": _counter(
            counters, "protocol.updates_registered"),
        "core.takeovers": _counter(counters, "protocol.takeovers"),
        "core.participants_degraded": _counter(
            counters, "protocol.participants_degraded"),
        "core.retries_exhausted": _counter(
            counters, "protocol.retries_exhausted"),
        "obs.events_published": session.sim.bus.events_published,
        "obs.telemetry_bytes": (registry.peak_telemetry_bytes
                                if registry is not None else 0),
        "obs.anomalies": len(watchdog.anomalies)
        if watchdog is not None else 0,
        "obs.invariant_violations": _counter(
            counters, "obs.invariant_violations"),
        "faults.injected": _counter(counters, "faults.injected"),
        "faults.healed": _counter(counters, "faults.healed"),
    }
    # Wasted work: useful outcomes against attempts.
    stale = counts["net.stale_wakeups"]
    guarded = counts["core.dir_requests"] + counts["ipfs.fetches"]
    counts["net.flows_per_recompute"] = \
        counts["net.recomputed_flows"] / max(1, recomputes)
    counts["net.stale_wakeup_share"] = \
        stale / max(1, stale + counts["net.cancelled_wakeups"])
    counts["core.retry_exhausted_share"] = \
        counts["core.retries_exhausted"] / max(1, guarded)
    return counts
