"""Host-cost profiler: where does the *wall* clock go?

Every other layer of :mod:`repro.obs` measures the simulated clock;
this module measures the host.  A :class:`HostProfiler` runs
``cProfile`` over the installed window and folds it by package, the
partition ``benchmarks/perf/trace.py`` reports as ``*.share``:

- a function's own time belongs to the ``repro.<package>`` that
  defines it (:data:`LAYERS`; any other ``repro`` package is ``other``);
- builtins, numpy, hashlib and the standard library have no package,
  so their time is charged through the callers table to whoever
  called them (``other`` when nothing profiled did).

One scope is one ``repro`` function (subsystem = package, phase =
module, actor = function name).  Self times are exclusive, so they
partition the profiled time and the subsystem shares sum to 1.

Contracts (pinned by ``tests/test_obs_profiling.py``):

- **Nothing in the run knows.**  No layer carries a profiler hook; an
  unprofiled run pays nothing and a profiled one is byte-identical to
  it (fingerprints, manifests, model parameters, ``sim.now``).
- **The price is cProfile's.**  Every Python call is slowed and native
  code is not: a profiled Fig. 1 round takes ~2x the bare wall and
  shares lean towards call-heavy code.  Read *where*, not *how long*;
  wall is measured unprofiled by ``benchmarks/perf``.
- **Deterministic on a fake clock.**  The profile's timer is the
  injected :class:`WallClock` — the one clock every wall-time read in
  the repo goes through (:data:`SYSTEM_WALL_CLOCK` by default) — so
  under :class:`FakeWallClock` a profile is a pure function of the
  call sequence.

See "Profiling" in ``docs/OBSERVABILITY.md`` for the artifact schema
(``python -m repro.cli run`` writes one as ``profile.json``).
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, IO, List, Optional, Tuple, Union

#: 2 = the package partition; 1 was the hand-placed ``kernel`` /
#: ``directory`` scopes and is refused, never diffed against this one.
PROFILE_VERSION = 2

#: The packages host time is attributed to (plus ``other``).
LAYERS = ("sim", "net", "ipfs", "crypto", "ml", "core", "obs", "faults")
_LAYER_OF_PATH = re.compile(r"[\\/]repro[\\/](\w+)[\\/]")

_NS = 1_000_000_000


class WallClock:
    """Injectable host wall-clock (monotonic, sub-microsecond).

    The single abstraction every wall-time measurement in the repo
    goes through, so tests can substitute :class:`FakeWallClock` and
    assert on deterministic durations.
    """

    __slots__ = ()

    #: Monotonic float seconds / integer nanoseconds: the builtins
    #: themselves, because the profiler reads ``nanoseconds`` twice
    #: per profiled call and a Python wrapper there costs 0.3x the run.
    seconds = staticmethod(time.perf_counter)
    nanoseconds = staticmethod(time.perf_counter_ns)


#: The process-wide default clock.  Components take a ``clock``
#: parameter defaulting to this singleton.
SYSTEM_WALL_CLOCK = WallClock()


class FakeWallClock(WallClock):
    """Deterministic wall clock for tests.

    Every read returns the current value and then advances it by
    ``tick`` seconds, so a sequence of reads yields an arithmetic
    progression; :meth:`advance` injects extra elapsed time.
    """

    __slots__ = ("_now_ns", "tick_ns", "reads")

    def __init__(self, start: float = 0.0, tick: float = 0.0):
        self._now_ns = int(round(start * _NS))
        self.tick_ns = int(round(tick * _NS))
        self.reads = 0

    def nanoseconds(self) -> int:
        value = self._now_ns
        self._now_ns += self.tick_ns
        self.reads += 1
        return value

    def seconds(self) -> float:
        return self.nanoseconds() / _NS

    def advance(self, seconds: float) -> None:
        """Inject ``seconds`` of elapsed wall time."""
        if seconds < 0:
            raise ValueError("cannot advance a monotonic clock backwards")
        self._now_ns += int(round(seconds * _NS))


def _layer_of(function) -> Optional[str]:
    """Package of a ``(file, line, name)`` stats key; None off-repo."""
    match = _LAYER_OF_PATH.search(function[0])
    if match is None:
        return None
    return match.group(1) if match.group(1) in LAYERS else "other"


def fold_by_package(stats) -> Dict[Tuple[str, str, str], List[float]]:
    """Fold ``cProfile`` stats into exclusive per-function scopes.

    ``stats`` is ``cProfile.Profile.stats``: function -> (primitive
    calls, calls, self s, total s, callers), callers: function ->
    (calls, primitive calls, self s, total s) spent in the callee on
    that caller's behalf.  Returns ``(package, module, function) ->
    [calls, self s, total s]`` with one scope per ``repro`` function,
    its self seconds including the off-repo work done on its behalf;
    they add up to the profiled time.
    """
    memo: dict = {}

    def owners(function, visiting) -> dict:
        """The functions on whose behalf ``function`` ran, as shares."""
        if _layer_of(function) is not None:
            return {function: 1.0}
        if function in memo:
            return memo[function]
        callers = stats[function][4]
        weight = sum(edge[3] for edge in callers.values())
        if not callers or weight <= 0 or function in visiting:
            return {function: 1.0}  # nobody to charge: lands in "other"
        visiting.add(function)
        shares: dict = {}
        for caller, edge in callers.items():
            for owner, share in owners(caller, visiting).items():
                shares[owner] = shares.get(owner, 0.0) \
                    + share * edge[3] / weight
        visiting.discard(function)
        memo[function] = shares
        return shares

    scopes: Dict[Tuple[str, str, str], List[float]] = {}

    def scope_of(function) -> List[float]:
        path = function[0]
        module = ("builtin" if path == "~" else
                  re.sub(r"\.py$", "", os.path.basename(path)))
        return scopes.setdefault(
            (_layer_of(function) or "other", module, function[2]),
            [0, 0.0, 0.0])

    for function, (_, calls, own, total, callers) in stats.items():
        if _layer_of(function) is not None or not callers:
            stat = scope_of(function)
            stat[0] += calls
            stat[1] += own
            stat[2] += total
            continue
        for caller, edge in callers.items():
            for owner, share in owners(caller, set()).items():
                scope_of(owner)[1] += edge[2] * share
    return scopes


@dataclass(frozen=True)
class ScopeStat:
    """Cost of one function: ``(subsystem, phase, actor)`` is its
    (package, module, name)."""

    subsystem: str
    phase: str
    actor: str
    calls: int
    #: Exclusive wall seconds (children subtracted).
    self_seconds: float
    #: Inclusive wall seconds.
    total_seconds: float

    @property
    def label(self) -> str:
        return f"{self.subsystem}.{self.phase}.{self.actor}"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScopeStat":
        return cls(**data)


@dataclass(frozen=True)
class HostProfile:
    """An immutable profiler snapshot: the JSON/report artifact."""

    #: The run's manifest fingerprint (``FLSession.fingerprint()``),
    #: so a profile is keyed to the exact scenario that produced it.
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    dispatches: int = 0
    #: Sorted by descending self time.
    scopes: Tuple[ScopeStat, ...] = ()

    # -- derived ----------------------------------------------------------

    @property
    def attributed_seconds(self) -> float:
        """Wall seconds inside any scope (self times partition this)."""
        return sum(scope.self_seconds for scope in self.scopes)

    @property
    def sim_per_wall(self) -> float:
        """The throughput gauge: simulated seconds per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.sim_seconds / self.wall_seconds

    def subsystem_seconds(self) -> Dict[str, float]:
        """Exclusive wall seconds per subsystem, largest first."""
        totals: Dict[str, float] = {}
        for scope in self.scopes:
            totals[scope.subsystem] = (
                totals.get(scope.subsystem, 0.0) + scope.self_seconds)
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def shares(self) -> Dict[str, float]:
        """Fraction of attributed time per subsystem; sums to ~1.0."""
        attributed = self.attributed_seconds
        if attributed <= 0:
            return {}
        return {subsystem: total / attributed
                for subsystem, total in self.subsystem_seconds().items()}

    def hotspots(self, n: int = 10) -> List[ScopeStat]:
        """The ``n`` most expensive scopes by exclusive time."""
        return list(self.scopes[:max(n, 0)])

    # -- reporting --------------------------------------------------------

    def format(self) -> str:
        """Human-readable report of the 12 hottest scopes."""
        from ..analysis.results import format_table

        lines = [
            f"host-cost profile: {self.sim_seconds:.1f} sim-s in "
            f"{self.wall_seconds:.3f} wall-s "
            f"({self.sim_per_wall:.1f} sim-s/wall-s), "
            f"{self.dispatches} dispatches",
        ]
        coverage = (self.attributed_seconds / self.wall_seconds * 100.0
                    if self.wall_seconds > 0 else 0.0)
        lines.append(
            f"attributed {self.attributed_seconds:.3f} wall-s "
            f"({coverage:.1f}% of window) across {len(self.scopes)} "
            "scope(s)")
        shares = self.shares()
        if shares:
            lines.append("shares: " + " | ".join(
                f"{subsystem} {share * 100.0:.1f}%"
                for subsystem, share in shares.items()))
        attributed = self.attributed_seconds
        rows = []
        for scope in self.hotspots(12):
            share = (scope.self_seconds / attributed * 100.0
                     if attributed > 0 else 0.0)
            rows.append([
                scope.label, scope.calls,
                round(scope.self_seconds, 4),
                round(scope.total_seconds, 4),
                f"{share:.1f}%",
            ])
        if rows:
            lines.append(format_table(
                ["scope", "calls", "self (s)", "total (s)", "share"],
                rows,
            ))
        return "\n".join(lines)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": PROFILE_VERSION,
            "fingerprint": dict(self.fingerprint),
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "sim_per_wall": self.sim_per_wall,
            "dispatches": self.dispatches,
            "attributed_seconds": self.attributed_seconds,
            "shares": self.shares(),
            "scopes": [scope.to_dict() for scope in self.scopes],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HostProfile":
        if not isinstance(data, dict):
            raise ValueError("a host profile is a JSON object, not "
                             f"{type(data).__name__}")
        version = data.get("version", PROFILE_VERSION)
        if version != PROFILE_VERSION:
            raise ValueError(
                f"unsupported profile version {version!r}: this build "
                f"reads version {PROFILE_VERSION} (package partition)")
        return cls(
            fingerprint=dict(data.get("fingerprint", {})),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            sim_seconds=float(data.get("sim_seconds", 0.0)),
            dispatches=int(data.get("dispatches", 0)),
            scopes=tuple(ScopeStat.from_dict(scope)
                         for scope in data.get("scopes", [])),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, destination: Union[str, "os.PathLike[str]",
                                       IO[str]]) -> None:
        if hasattr(destination, "write"):
            destination.write(self.to_json())
            return
        with io.open(os.fspath(destination), "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"]) -> "HostProfile":
        with io.open(os.fspath(path), "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class HostProfiler:
    """``cProfile`` over a simulator's run, folded by package.

    :meth:`install` starts the profile on the calling thread,
    :meth:`uninstall` stops it and closes the window (windows
    accumulate across re-installs), :meth:`profile` folds whatever has
    been collected so far into an immutable :class:`HostProfile`.
    """

    def __init__(self, clock: WallClock = SYSTEM_WALL_CLOCK):
        self.clock = clock
        self._profile = None
        self._sim = None
        self._wall_start_ns = 0
        self._sim_start = 0.0
        #: Closed (uninstalled) window totals.
        self.wall_seconds = 0.0
        self.sim_seconds = 0.0

    def install(self, sim) -> "HostProfiler":
        """Start profiling; ``sim`` supplies the simulated clock."""
        if self._sim is not None:
            raise RuntimeError("profiler is already installed")
        if self._profile is None:
            # Imported here so ``import repro`` does not pay for it.
            import cProfile
            self._profile = cProfile.Profile(self.clock.nanoseconds, 1 / _NS)
        self._wall_start_ns = self.clock.nanoseconds()
        try:
            if sys.getprofile() is not None:  # 3.12+ checks in enable();
                raise ValueError              # earlier ones replace it
            self._profile.enable()
        except ValueError:
            raise RuntimeError("another profiler is already active "
                               "on this thread") from None
        self._sim = sim
        self._sim_start = sim.now
        return self

    def uninstall(self) -> None:
        """Stop profiling and fold the window into the totals."""
        sim = self._sim
        if sim is None:
            return
        self._profile.disable()
        now = self.clock.nanoseconds()
        self.wall_seconds += (now - self._wall_start_ns) / _NS
        self.sim_seconds += sim.now - self._sim_start
        self._sim = None

    def profile(self, fingerprint: Optional[Dict[str, Any]] = None
                ) -> HostProfile:
        """Snapshot the current attribution as a :class:`HostProfile`."""
        from ..sim import Simulator

        wall = self.wall_seconds
        sim_seconds = self.sim_seconds
        stats: dict = {}
        if self._sim is not None:
            wall += (self.clock.nanoseconds() - self._wall_start_ns) / _NS
            sim_seconds += self._sim.now - self._sim_start
        if self._profile is not None:
            self._profile.snapshot_stats()  # create_stats() would disable
            stats = self._profile.stats
        code = Simulator.step.__code__
        step = (code.co_filename, code.co_firstlineno, code.co_name)
        scopes = sorted(
            (ScopeStat(subsystem=key[0], phase=key[1], actor=key[2],
                       calls=stat[0], self_seconds=stat[1],
                       total_seconds=stat[2])
             for key, stat in fold_by_package(stats).items()),
            key=lambda scope: (-scope.self_seconds, scope.label),
        )
        return HostProfile(
            fingerprint=dict(fingerprint or {}),
            wall_seconds=wall,
            sim_seconds=sim_seconds,
            dispatches=stats[step][1] if step in stats else 0,
            scopes=tuple(scopes),
        )
