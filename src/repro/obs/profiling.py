"""Host-cost profiler: where does the *wall* clock go?

Every other layer of :mod:`repro.obs` measures the simulated clock;
this module measures the host.  A :class:`HostProfiler` samples the
main thread's stack every :data:`SAMPLE_INTERVAL` seconds of wall time
over the installed window and charges the time since the previous
sample to the partition ``benchmarks/perf/trace.py`` reports as
``*.share``:

- the innermost frame of a function defined in ``repro/<package>/``
  is charged, under that package (:data:`LAYERS`; any other ``repro``
  package is ``other``);
- builtins, numpy, hashlib and the standard library have no package,
  so their time goes to the ``repro`` frame that called them (a stack
  with no such frame goes to ``other``).

One scope is one ``repro`` function (subsystem = package, phase =
module, actor = function name).  Each sample's time goes to exactly one
scope, so self times partition the sampled time and the subsystem
shares sum to 1.

Contracts (pinned by ``tests/test_obs_profiling.py``):

- **Nothing in the run knows.**  No layer carries a profiler hook; an
  unprofiled run pays nothing and a profiled one is byte-identical to
  it (fingerprints, manifests, model parameters, ``sim.now``).
- **The price is a signal per sample.**  Python code runs at full
  speed between samples, and a sample is weighted by the wall time it
  closes, so native calls (hashlib, numpy) keep their whole length even
  when several timer signals coalesce into one.  A share is a sampling
  estimate: a share *p* over *n* samples is good to about
  ``sqrt(p * (1 - p) / n)``, and the report prints *n*.
- **One thread.**  Signal handlers run on the main thread, so only its
  stack is sampled: the leaves the :mod:`repro.ipfs.block` helper lane
  hashes are not in the profile, and the main thread's wait on that
  lane is charged to ``chunk_object``, in ``ipfs``.
  :meth:`HostProfiler.install` must run on the main thread, and owns
  ``ITIMER_REAL`` and ``SIGALRM`` for the window.
- **Deterministic on a fake clock.**  The sampler reads the injected
  :class:`WallClock` — the one clock every wall-time read in the repo
  goes through (:data:`SYSTEM_WALL_CLOCK` by default) — so under
  :class:`FakeWallClock` the charge of a sequence of stacks is a pure
  function of the stacks.  *When* a sample falls is the host's.

See "Profiling" in ``docs/OBSERVABILITY.md`` for the artifact schema
(``python -m repro.cli run`` writes one as ``profile.json``).
"""

from __future__ import annotations

import io
import json
import os
import re
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, IO, List, Optional, Tuple, Union

#: 3 = sampled stacks; 2 was a deterministic profiler's call counts and
#: inclusive times, 1 the hand-placed ``kernel`` / ``directory`` scopes.
#: Both are refused, never diffed against this one.
PROFILE_VERSION = 3

#: The packages host time is attributed to (plus ``other``).
LAYERS = ("sim", "net", "ipfs", "crypto", "ml", "core", "obs", "faults")
_LAYER_OF_PATH = re.compile(r"[\\/]repro[\\/](\w+)[\\/]")

#: Wall seconds between samples: ≈ 200 samples on a Fig. 1 round, and
#: no wall the sampler's handler adds that runs can tell from noise.
SAMPLE_INTERVAL = 0.0005


class WallClock:
    """Injectable host wall-clock (monotonic, sub-microsecond).

    The single abstraction every wall-time measurement in the repo
    goes through, so tests can substitute :class:`FakeWallClock` and
    assert on deterministic durations.
    """

    __slots__ = ()

    #: Monotonic float seconds: the builtin itself.
    seconds = staticmethod(time.perf_counter)


#: The process-wide default clock.  Components take a ``clock``
#: parameter defaulting to this singleton.
SYSTEM_WALL_CLOCK = WallClock()


class FakeWallClock(WallClock):
    """Deterministic wall clock for tests.

    Every read returns the current value and then advances it by
    ``tick`` seconds, so a sequence of reads yields an arithmetic
    progression; :meth:`advance` injects extra elapsed time.
    """

    __slots__ = ("_now", "tick", "reads")

    def __init__(self, start: float = 0.0, tick: float = 0.0):
        self._now = start
        self.tick = tick
        self.reads = 0

    def seconds(self) -> float:
        value = self._now
        self._now += self.tick
        self.reads += 1
        return value

    def advance(self, seconds: float) -> None:
        """Inject ``seconds`` of elapsed wall time."""
        if seconds < 0:
            raise ValueError("cannot advance a monotonic clock backwards")
        self._now += seconds


def _scope_of(code) -> Tuple[Optional[str], str, str]:
    """``(package, module, function)`` of a code object; the package is
    None outside ``repro/<package>/``."""
    path = code.co_filename
    match = _LAYER_OF_PATH.search(path)
    layer = (None if match is None else
             match.group(1) if match.group(1) in LAYERS else "other")
    return (layer, re.sub(r"\.py$", "", os.path.basename(path)),
            code.co_name)


@dataclass(frozen=True)
class ScopeStat:
    """Cost of one function: ``(subsystem, phase, actor)`` is its
    (package, module, name)."""

    subsystem: str
    phase: str
    actor: str
    #: Samples charged here.
    samples: int
    #: Wall seconds those samples closed (exclusive).
    self_seconds: float

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
    #: Sorted by descending self time.
    scopes: Tuple[ScopeStat, ...] = ()

    # -- derived ----------------------------------------------------------

    @property
    def attributed_seconds(self) -> float:
        """Wall seconds inside any scope (self times partition this)."""
        return sum(scope.self_seconds for scope in self.scopes)

    @property
    def samples(self) -> int:
        """Samples taken in the window."""
        return sum(scope.samples for scope in self.scopes)

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
            f"{self.samples} samples",
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
                scope.label, scope.samples,
                round(scope.self_seconds, 4),
                f"{share:.1f}%",
            ])
        if rows:
            lines.append(format_table(
                ["scope", "samples", "self (s)", "share"], rows))
        return "\n".join(lines)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": PROFILE_VERSION,
            "fingerprint": dict(self.fingerprint),
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "sim_per_wall": self.sim_per_wall,
            "samples": self.samples,
            "attributed_seconds": self.attributed_seconds,
            "shares": self.shares(),
            "scopes": [scope.to_dict() for scope in self.scopes],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HostProfile":
        if not isinstance(data, dict):
            raise ValueError("a host profile is a JSON object, not "
                             f"{type(data).__name__}")
        version = data.get("version")
        if version != PROFILE_VERSION:
            raise ValueError(
                f"unsupported profile version {version!r}: this build "
                f"reads version {PROFILE_VERSION} (sampled stacks)")
        return cls(
            fingerprint=dict(data.get("fingerprint", {})),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            sim_seconds=float(data.get("sim_seconds", 0.0)),
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
    """A wall-clock stack sampler over a simulator's run.

    :meth:`install` arms the real-time interval timer, whose
    ``SIGALRM`` handler samples the interrupted stack; :meth:`uninstall`
    disarms it and closes the window (windows accumulate across
    re-installs); :meth:`profile` snapshots whatever has been sampled
    so far as an immutable :class:`HostProfile`.
    """

    def __init__(self, clock: WallClock = SYSTEM_WALL_CLOCK):
        self.clock = clock
        self._sim = None
        #: The ``SIGALRM`` handler :meth:`install` replaced.
        self._previous = None
        self._wall_start = 0.0
        self._sim_start = 0.0
        #: The clock at the previous sample (or at install).
        self._last = 0.0
        #: code object -> :func:`_scope_of` it, memoised.
        self._scopes: Dict[Any, Tuple[Optional[str], str, str]] = {}
        #: scope -> [samples, seconds].
        self._charged: Dict[Tuple[str, str, str], List] = {}
        #: Closed (uninstalled) window totals.
        self.wall_seconds = 0.0
        self.sim_seconds = 0.0

    def install(self, sim) -> "HostProfiler":
        """Start sampling; ``sim`` supplies the simulated clock."""
        # Imported here so ``import repro`` does not pay for it.
        import signal

        if self._sim is not None:
            raise RuntimeError("profiler is already installed")
        if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
            raise RuntimeError("the real-time interval timer is already "
                               "armed")
        self._previous = signal.signal(
            signal.SIGALRM, lambda _signum, frame: self._sample(frame))
        self._sim = sim
        self._sim_start = sim.now
        self._wall_start = self._last = self.clock.seconds()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL,
                         SAMPLE_INTERVAL)
        return self

    def uninstall(self) -> None:
        """Stop sampling and fold the window into the totals."""
        sim = self._sim
        if sim is None:
            return
        import signal

        # Disarm first, so no new sample arrives once the handler that
        # takes it is swapped back out.
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_seconds += self.clock.seconds() - self._wall_start
        self.sim_seconds += sim.now - self._sim_start
        self._sim = None

    def _sample(self, frame) -> None:
        """Charge the wall time since the previous sample to the
        innermost ``repro/<package>/`` frame of ``frame``'s stack, or,
        when there is none, to the innermost frame under ``other``."""
        now = self.clock.seconds()
        elapsed, self._last = now - self._last, now
        scopes = self._scopes
        innermost = None
        while frame is not None:
            code = frame.f_code
            scope = scopes.get(code)
            if scope is None:
                scope = scopes[code] = _scope_of(code)
            if scope[0] is not None:
                break
            innermost = innermost or scope
            frame = frame.f_back
        else:  # nothing in repro/<package>/ is on the stack
            scope = ("other",) + (innermost or (None, "", ""))[1:]
        stat = self._charged.get(scope)
        if stat is None:
            stat = self._charged[scope] = [0, 0.0]
        stat[0] += 1
        stat[1] += elapsed

    def profile(self, fingerprint: Optional[Dict[str, Any]] = None
                ) -> HostProfile:
        """Snapshot the current attribution as a :class:`HostProfile`."""
        wall = self.wall_seconds
        sim_seconds = self.sim_seconds
        if self._sim is not None:
            wall += self.clock.seconds() - self._wall_start
            sim_seconds += self._sim.now - self._sim_start
        scopes = sorted(
            (ScopeStat(subsystem=key[0], phase=key[1], actor=key[2],
                       samples=stat[0], self_seconds=stat[1])
             # list(): a sample may land while this iterates.
             for key, stat in list(self._charged.items())),
            key=lambda scope: (-scope.self_seconds, scope.label),
        )
        return HostProfile(
            fingerprint=dict(fingerprint or {}),
            wall_seconds=wall,
            sim_seconds=sim_seconds,
            scopes=tuple(scopes),
        )
