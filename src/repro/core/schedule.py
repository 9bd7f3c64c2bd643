"""Per-iteration schedules, and the participant that runs rounds on them.

"In each iteration (training round), participants receive a schedule that
contains the iteration (number) of the learning process and two UTC
timestamps, the t_train and t_synch" (Sec. III-D).  Timestamps here are
absolute simulated times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..faults.retry import RetryExhaustedError
from ..sim import Interrupt, Simulator

__all__ = ["IterationSchedule"]


@dataclass(frozen=True)
class IterationSchedule:
    """The deadlines of one training round (absolute simulated seconds)."""

    iteration: int
    start: float
    #: Trainers must have uploaded their gradients by this time.
    t_train: float
    #: The iteration must have produced global updates by this time.
    t_sync: float

    def __post_init__(self):
        if not self.start <= self.t_train < self.t_sync:
            raise ValueError("need start <= t_train < t_sync")

    @classmethod
    def from_durations(cls, iteration: int, start: float,
                       train_duration: float,
                       sync_duration: float) -> "IterationSchedule":
        """Build from the config's relative durations."""
        return cls(
            iteration=iteration,
            start=start,
            t_train=start + train_duration,
            t_sync=start + sync_duration,
        )

    def remaining_sync(self, now: float) -> float:
        """Seconds left until the iteration deadline (>= 0)."""
        return max(0.0, self.t_sync - now)


class Participant:
    """A protocol role: one process per round, plus guarded children.

    Children never *fail* their process event (a same-timestamp pair of
    failures would escape the parent's ``all_of``): an :class:`Interrupt`
    ends a child silently, and a :class:`RetryExhaustedError` is recorded
    for the parent to re-raise after the join.
    """

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self.sim = sim
        #: Child processes of the current round.  The session's
        #: supervisor interrupts any still alive when this participant is
        #: crashed by fault injection.
        self.active_children: List = []
        self._child_errors: List[Exception] = []

    def _begin_round(self) -> None:
        self.active_children = []
        self._child_errors = []

    def _spawn(self, generator, name: str):
        """Spawn a guarded child process for the current round."""
        process = self.sim.process(self._guard(generator), name=name)
        self.active_children.append(process)
        return process

    def _guard(self, generator):
        try:
            yield from generator
        except Interrupt:
            pass
        except RetryExhaustedError as exc:
            self._child_errors.append(exc)

    def _join(self, children):
        """Wait for ``children``; re-raise a child's exhausted retries."""
        if children:
            yield self.sim.all_of(children)
        if self._child_errors:
            raise self._child_errors[0]
