"""Cohort abstraction: statistical modeling of the unsampled trainer mass.

Scaling the simulation to 10^4-10^5 trainers cannot mean 10^5 generator
processes, 10^5 model clones and 4x10^5 individual uploads per round —
that is O(n) in exactly the quantities the paper's Sec. VI argues grow
linearly.  Instead a session simulates a *seeded sample* of trainers
exactly (full processes, transfers, training — everything the paper's
figures measure per participant) while the remaining population is
modeled *statistically per cohort*:

- each cohort gets one network host whose link capacity is its member
  count times the per-trainer bandwidth, so the members' aggregate link
  load still contends with the exact participants' flows;
- each round, the cohort charges the directory with its members'
  registration and lookup volume via bulk ``dir.register.cohort`` /
  ``dir.lookup.cohort`` messages (``register_count``/``lookup_count``
  and the serialized processing delay scale with the *population*,
  message count with the *cohort count*);
- the members' gradient uploads and update downloads move as one
  aggregate flow per cohort, sized members x bytes-per-trainer.

Modeled members contribute load, not protocol state: their gradients
never enter aggregation and their models are not materialized.  A plan
whose population equals the sampled trainer count is *exact mode* — no
cohort machinery is constructed at all and the session is byte-identical
to a plain per-trainer run (there is a fingerprint-identity test for
this).  See ``docs/SCALING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..net.bandwidth import TransferAbortedError
from ..obs.events import CohortLoadApplied
from .directory import DirectoryClient
from .dirshard import ShardMap
from .schedule import IterationSchedule

__all__ = ["CohortPlan", "CohortCoordinator"]


@dataclass(frozen=True)
class CohortPlan:
    """How a session scales beyond its exactly-simulated trainers.

    ``population`` is the total trainer count being modeled; the
    session's datasets define the exactly-simulated sample, and the
    remainder (``population - len(datasets)``) is split across
    ``cohorts`` statistical cohorts.  ``population`` equal to the sample
    size is exact mode: no cohorts are built.
    """

    population: int
    cohorts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.cohorts < 1:
            raise ValueError("cohorts must be >= 1")

    def modeled_trainers(self, sampled: int) -> int:
        """How many trainers are statistically modeled (never negative)."""
        if self.population < sampled:
            raise ValueError(
                f"population {self.population} is smaller than the "
                f"{sampled} exactly-simulated trainers"
            )
        return self.population - sampled

    def member_counts(self, sampled: int) -> List[int]:
        """Cohort sizes for the modeled remainder (empty in exact mode).

        The remainder is spread as evenly as possible over at most
        ``cohorts`` groups; fewer groups when there are fewer modeled
        trainers than cohorts.
        """
        modeled = self.modeled_trainers(sampled)
        if modeled == 0:
            return []
        groups = min(self.cohorts, modeled)
        base, extra = divmod(modeled, groups)
        return [base + (1 if index < extra else 0)
                for index in range(groups)]


class CohortCoordinator:
    """One statistical cohort: a host plus a per-round load process."""

    def __init__(self, name: str, sim, transport, network,
                 config, members: int, upload_bytes_per_trainer: float,
                 download_bytes_per_trainer: float, storage_node: str,
                 shard_map: Optional[ShardMap] = None, seed: int = 0):
        self.name = name
        self.sim = sim
        self.network = network
        self.config = config
        self.members = members
        self.upload_bytes = float(upload_bytes_per_trainer)
        self.download_bytes = float(download_bytes_per_trainer)
        self.storage_node = storage_node
        self.seed = seed
        self.endpoint = transport.endpoint(name)
        #: Built bare (no retry policy, no timeout): cohort bulk load
        #: either lands or the cohort degrades silently.
        self.directory = DirectoryClient(name, transport, shard_map)
        #: Rounds whose full load (register + upload + lookup + download)
        #: was applied.
        self.completed_iterations = 0

    def run_iteration(self, schedule: IterationSchedule):
        """Apply one round of the cohort's aggregate load (generator).

        Mirrors the exact trainer's round shape — jitter + local
        training, registration, upload, wait for the sync phase, lookup,
        download — with every step carrying members-fold load in one
        message or flow.
        """
        config = self.config
        rng = np.random.default_rng(
            self.seed + 104729 * schedule.iteration
        )
        delay = 0.0
        if config.trainer_jitter > 0:
            delay += float(rng.uniform(0.0, config.trainer_jitter))
        delay += config.local_train_seconds
        if delay > 0:
            yield self.sim.timeout(delay)
        if self.sim.now > schedule.t_train:
            return  # the whole cohort missed the round's upload window
        registrations = self.members * config.num_partitions
        try:
            yield from self.directory.register_cohort(
                iteration=schedule.iteration, members=self.members,
                num_partitions=config.num_partitions, cohort=self.name,
            )
            yield self.network.transfer(
                self.name, self.storage_node,
                self.members * self.upload_bytes,
            )
            remaining = schedule.remaining_train(self.sim.now)
            if remaining > 0:
                yield self.sim.timeout(remaining)
            lookups = self.members * config.num_partitions
            yield from self.directory.lookup_cohort(
                iteration=schedule.iteration, members=self.members,
                num_partitions=config.num_partitions, cohort=self.name,
            )
            yield self.network.transfer(
                self.storage_node, self.name,
                self.members * self.download_bytes,
            )
        except TransferAbortedError:
            return  # infrastructure fault: the cohort degrades silently
        self.completed_iterations += 1
        bus = self.sim.bus
        if bus.wants(CohortLoadApplied) and bus.admits(
                CohortLoadApplied, schedule.iteration, self.name):
            bus.publish(CohortLoadApplied(
                at=self.sim.now, iteration=schedule.iteration,
                cohort=self.name, members=self.members,
                registrations=registrations, lookups=lookups,
                bytes_up=self.members * self.upload_bytes,
                bytes_down=self.members * self.download_bytes,
            ))
