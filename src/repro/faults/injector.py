"""Executes a :class:`~repro.faults.plan.FaultPlan` against a session.

The injector is an ordinary simulation participant: ``start()`` spawns
one driver process per :class:`~repro.faults.plan.FaultSpec`, each of
which sleeps until its ``at``, applies the fault, and — for windowed
faults — sleeps out the ``duration`` and heals it.  Every application
and heal is announced on the event bus (``FaultInjected`` /
``FaultHealed``), so counters, the flight recorder and invariant
monitors see the full chaos timeline.

Determinism: the schedule is pure data, no fault draws a random
number, and the sim kernel orders the driver processes like any other —
the same plan against the same session yields byte-identical runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..obs.events import FaultHealed, FaultInjected
from .plan import FaultPlan, FaultSpec


class FaultInjector:
    """Drives a fault plan against a running :class:`FLSession`.

    Duck-types the session: it needs ``sim``, ``testbed.network``,
    ``directory``, the participant name lists and
    the session's ``_round_processes`` registry (the per-round supervised
    processes it interrupts to crash a participant).
    """

    def __init__(self, session, plan: FaultPlan):
        self.session = session
        self.plan = plan
        self.sim = session.sim
        #: participant name -> reason, while a crash window is open.
        #: The session consults this to skip spawning crashed
        #: participants (they "late-join" once healed).
        self._down: Dict[str, str] = {}
        self._procs: List[object] = []
        self._validate()

    # -- wiring -----------------------------------------------------------------

    def _validate(self) -> None:
        trainers = {t.name for t in self.session.trainers}
        aggregators = {a.name for a in self.session.aggregators}
        network = self.session.testbed.network
        for index, spec in enumerate(self.plan.specs):
            label = f"spec {index} ({spec.kind})"
            if spec.kind == "crash_trainer" and spec.target not in trainers:
                raise ValueError(f"{label}: unknown trainer {spec.target!r}")
            if spec.kind == "crash_aggregator" \
                    and spec.target not in aggregators:
                raise ValueError(
                    f"{label}: unknown aggregator {spec.target!r}"
                )
            if spec.kind == "link_down" and spec.target not in network:
                raise ValueError(f"{label}: unknown host {spec.target!r}")

    def start(self) -> None:
        """Spawn one driver process per scheduled fault."""
        if self._procs:
            raise RuntimeError("injector already started")
        self._procs = [
            self.sim.process(
                self._drive(index, spec),
                name=f"fault:{index}:{spec.kind}",
            )
            for index, spec in enumerate(self.plan.specs)
        ]

    def is_down(self, participant: str) -> Optional[str]:
        """Why ``participant`` is currently crashed, or None if it is up."""
        return self._down.get(participant)

    # -- the per-spec driver ------------------------------------------------------

    def _drive(self, index: int, spec: FaultSpec):
        if spec.at > 0:
            yield self.sim.timeout(spec.at)
        heal = self._apply(spec)
        bus = self.sim.bus
        if bus.wants(FaultInjected):
            bus.publish(FaultInjected(
                at=self.sim.now, kind=spec.kind, target=spec.target,
                spec_index=index,
            ))
        if spec.duration is None:
            return  # permanent fault (e.g. a trainer that never rejoins)
        yield self.sim.timeout(spec.duration)
        heal()
        if bus.wants(FaultHealed):
            bus.publish(FaultHealed(
                at=self.sim.now, kind=spec.kind, target=spec.target,
                spec_index=index,
            ))

    def _apply(self, spec: FaultSpec) -> Callable[[], None]:
        """Apply one fault; returns the closure that heals it."""
        if spec.kind in ("crash_trainer", "crash_aggregator"):
            return self._crash_participant(spec)
        if spec.kind == "link_down":
            return self._link_down(spec)
        if spec.kind == "directory_brownout":
            return self._directory_brownout(spec)
        raise ValueError(f"unknown fault kind {spec.kind!r}")

    # -- fault kinds ----------------------------------------------------------------

    def _crash_participant(self, spec: FaultSpec):
        name = spec.target
        self._down[name] = "crashed (fault injection)"
        process = self.session._round_processes.get(name)
        if process is not None and process.is_alive:
            process.interrupt(f"fault injection: crash at {self.sim.now}")

        def heal():
            # The participant rejoins from the next round on; nothing to
            # restart mid-round (a crashed round stays lost).
            self._down.pop(name, None)

        return heal

    def _link_down(self, spec: FaultSpec):
        network = self.session.testbed.network
        network.set_host_online(spec.target, False, reason="fault injection")
        return lambda: network.set_host_online(spec.target, True)

    def _directory_brownout(self, spec: FaultSpec):
        directory = self.session.directory
        saved = directory.processing_delay
        directory.processing_delay = spec.processing_delay

        def heal():
            directory.processing_delay = saved

        return heal
