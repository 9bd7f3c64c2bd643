"""Session orchestration: wiring the whole deployment and running rounds.

:class:`Session` is the one round driver every session shares — the
protocol's and the two baselines' (:mod:`repro.baselines`): it counts
iterations, owns the telemetry, publishes each round's start and end and
drives what the round spawns in between.  :class:`FLSession` builds the
emulated network, the IPFS nodes, the directory service and all
participants from a :class:`ProtocolConfig`; its rounds follow the
paper's schedule.

The deployment shape is described by three composable profiles — a
:class:`~repro.net.NetworkProfile`, an optional
:class:`~repro.faults.FaultPlan` and a
:class:`~repro.core.directory.DirectoryProfile` — and by nothing else::

    session = FLSession(config, model_factory, datasets,
                        network=NetworkProfile(bandwidth_mbps=20.0),
                        faults=FaultPlan([...]),
                        directory=DirectoryProfile(processing_delay=1e-3))

Every session runs one :class:`~repro.core.directory.DirectoryService`
on the testbed's well-known ``"directory"`` host, and every participant
reaches it through its own :class:`~repro.core.directory.DirectoryClient`.
"""

from __future__ import annotations

import gc
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..faults import FaultInjector, FaultPlan, RetryExhaustedError, \
    RetryPolicy
from ..ipfs import DHT, IPFSNode, PubSub, ReplicationCluster
from ..ml import Dataset, Model
from ..net import NetworkProfile, Testbed, build_testbed
from ..obs import TelemetryCollector
from ..obs.events import IterationFinished, IterationStarted, \
    ParticipantDegraded
from ..sim import Interrupt, Simulator
from .adversary import AggregatorBehavior
from .aggregator import Aggregator
from .bootstrapper import Assignment, Bootstrapper, build_assignment
from .config import ProtocolConfig
from .directory import DirectoryProfile, DirectoryService
from .partition import ModelPartitioner
from .schedule import IterationSchedule, Participant
from ..obs.telemetry import IterationMetrics, SessionMetrics
from .trainer import Trainer
from .verification import PartitionCommitter

#: Simulated seconds one DHT provider lookup takes.
DHT_LOOKUP_DELAY = 0.02


class Session:
    """One FedAvg round driver: what every session does with a round.

    A subclass builds its deployment, calls ``super().__init__(sim)``
    where the telemetry collector should subscribe, keeps its trainers
    in :attr:`trainers` and supplies :meth:`_round`, the process
    generator of what one round spawns.
    """

    #: The trainers, each with a ``name`` and a ``model``.
    trainers: List[Trainer]

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: Telemetry is an ordinary bus subscriber: the participants
        #: publish events and this collector folds them into the paper's
        #: metrics.  Close it (``session.telemetry.close()``) for an
        #: unobserved run.
        self.telemetry = TelemetryCollector(sim.bus)
        self.metrics: SessionMetrics = self.telemetry.session
        self._iteration = 0

    def _schedule(self, iteration: int) -> Optional[IterationSchedule]:
        """The deadlines stamped on the round's start event; None runs
        the round to completion without any."""
        return None

    def _round(self, iteration: int,
               schedule: Optional[IterationSchedule]):
        """The process generator of what one round spawns."""
        raise NotImplementedError

    def run_iteration(self) -> Optional[IterationMetrics]:
        """Execute one full training round.

        Returns the round's metrics, assembled by :attr:`telemetry` from
        the events the participants published — or None when telemetry
        has been closed (an unobserved run).
        """
        iteration = self._iteration
        self._iteration += 1
        schedule = self._schedule(iteration)
        bus = self.sim.bus
        if bus.wants(IterationStarted):
            bus.publish(IterationStarted(
                at=self.sim.now, iteration=iteration,
                t_train=schedule.t_train if schedule else None,
                t_sync=schedule.t_sync if schedule else None,
            ))
        process = self.sim.process(self._round(iteration, schedule),
                                   name=f"round:{iteration}")
        # A round leaves no cyclic garbage — the kernel frees what it has
        # processed by reference count alone (tests/test_payload_lifetime.py
        # holds that, faults included) — so the cyclic collector would only
        # walk the live heap, over and over, for nothing.  Host state only.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.sim.run_until(process)
        finally:
            if collecting:
                gc.enable()
        if not process.ok:
            raise process.value
        if bus.wants(IterationFinished):
            bus.publish(IterationFinished(at=self.sim.now,
                                          iteration=iteration))
        if self.metrics.iterations and \
                self.metrics.iterations[-1].iteration == iteration:
            return self.metrics.iterations[-1]
        return None

    def run(self, rounds: int) -> SessionMetrics:
        """Run ``rounds`` iterations back to back."""
        for _ in range(rounds):
            self.run_iteration()
        return self.metrics

    def model_of(self, index: int = 0) -> Model:
        """The current model of trainer ``index``."""
        return self.trainers[index].model

    def consensus_params(self) -> np.ndarray:
        """The shared model parameters, asserting all trainers agree."""
        reference = self.trainers[0].model.get_params()
        for trainer in self.trainers[1:]:
            if not np.allclose(trainer.model.get_params(), reference,
                               atol=1e-12):
                raise AssertionError(
                    f"trainer {trainer.name} diverged from trainer 0"
                )
        return reference


class FLSession(Session):
    """A complete decentralized FL deployment in one object."""

    def __init__(
        self,
        config: ProtocolConfig,
        model_factory: Callable[[], Model],
        datasets: Sequence[Dataset],
        network: Optional[NetworkProfile] = None,
        faults: Optional[FaultPlan] = None,
        directory: Optional[DirectoryProfile] = None,
        behaviors: Optional[Dict[str, AggregatorBehavior]] = None,
    ):
        """
        Parameters
        ----------
        config:
            Protocol parameters (partitions, |A_i|, deadlines, verifiability,
            merge-and-download, ...).
        model_factory:
            Builds one model instance; every trainer starts from a clone of
            the same template, as all IPLS participants share the initial
            model.
        datasets:
            One local shard per trainer; their count fixes the number of
            trainers.
        network:
            The infrastructure profile (topology, bandwidths, DHT mode,
            replication, retry/timeout policy).  Defaults to
            ``NetworkProfile()`` — the historical testbed.
        faults:
            Optional deterministic fault schedule, executed by a
            :class:`~repro.faults.FaultInjector` alongside the protocol.
            When set, the profile's retry policy and directory request
            timeout default on (so outages degrade rather than wedge).
        directory:
            How the directory service is deployed
            (:class:`~repro.core.directory.DirectoryProfile`): the
            paper's single directory on the well-known ``"directory"``
            host, with the profile's serialized processing delay.
        behaviors:
            Optional per-aggregator behaviours keyed by aggregator name
            ("aggregator-0", ...); unnamed aggregators are honest.
        """
        if not datasets:
            raise ValueError("need at least one trainer dataset")
        profile = network if network is not None else NetworkProfile()
        if faults:
            # A chaos run must degrade, not wedge: default the robustness
            # knobs on unless the profile pins them explicitly.
            if profile.directory_request_timeout is None:
                profile = replace(profile, directory_request_timeout=15.0)
            if profile.retry is None:
                profile = replace(profile, retry=RetryPolicy())
        #: The resolved infrastructure profile this session runs on.
        self.network_profile: NetworkProfile = profile
        #: The fault schedule (None or an empty plan means honest infra).
        self.faults: Optional[FaultPlan] = faults if faults else None
        #: The resolved directory deployment profile.
        self.directory_profile: DirectoryProfile = (
            directory if directory is not None else DirectoryProfile()
        )
        self.config = config
        num_trainers = len(datasets)
        num_aggregators = (
            config.num_partitions * config.aggregators_per_partition
        )
        self.testbed: Testbed = build_testbed(
            num_trainers=num_trainers,
            num_aggregators=num_aggregators,
            num_ipfs_nodes=profile.num_ipfs_nodes,
            bandwidth_mbps=profile.bandwidth_mbps,
            aggregator_bandwidth_mbps=profile.aggregator_bandwidth_mbps,
            trainer_bandwidths_mbps=profile.trainer_bandwidths_mbps,
            latency=profile.latency,
        )
        self.sim = self.testbed.sim
        self.dht = DHT(self.sim, lookup_delay=DHT_LOOKUP_DELAY,
                       seed=config.seed)
        self.pubsub = PubSub(self.testbed.transport)
        self.nodes: List[IPFSNode] = [
            IPFSNode(self.sim, self.testbed.transport, self.dht, name,
                     chunk_size=config.chunk_size)
            for name in self.testbed.ipfs_names
        ]
        self.cluster = None
        if profile.replication_factor is not None:
            self.cluster = ReplicationCluster(
                self.sim, self.nodes,
                replication_factor=profile.replication_factor,
            )

        # -- model segmentation ------------------------------------------------
        self._template = model_factory()
        self.partitioner = ModelPartitioner(
            self._template.num_params(), config.num_partitions
        )
        self.committers: Dict[int, PartitionCommitter] = {}
        if config.verifiable:
            by_length: Dict[int, PartitionCommitter] = {}
            for partition_id in range(config.num_partitions):
                length = self.partitioner.partition_size(partition_id)
                if length not in by_length:
                    by_length[length] = PartitionCommitter(
                        length, curve=config.curve,
                        fractional_bits=config.fractional_bits,
                    )
                self.committers[partition_id] = by_length[length]

        # -- assignment and directory ---------------------------------------------
        self.assignment: Assignment = build_assignment(
            config,
            trainer_names=self.testbed.trainer_names,
            aggregator_names=self.testbed.aggregator_names,
            ipfs_names=self.testbed.ipfs_names,
        )
        self.directory = DirectoryService(
            self.sim,
            self.testbed.transport,
            self.dht,
            committers=self.committers,
            trainer_assignment=self.assignment.aggregator_of,
            verifiable=config.verifiable and config.directory_verification,
            processing_delay=self.directory_profile.processing_delay,
        )
        self.bootstrapper = Bootstrapper(
            self.sim, self.testbed.transport,
            name=self.testbed.directory_name,
        )

        # -- participants ----------------------------------------------------------
        behaviors = behaviors or {}
        # Every trainer starts from one frozen copy of the template's
        # parameters, which a model that adopts (SyntheticModel) keeps —
        # so the trainers' first installs share from the same base.
        initial = self._template.get_params()
        initial.flags.writeable = False
        #: Update CIDs -> [(base, installed vector)], shared by the
        #: trainers (``Trainer.installs``); cleared at each round's start
        #: and end.
        self._installs: Dict[tuple, list] = {}
        self.trainers = []
        for index, name in enumerate(self.testbed.trainer_names):
            self.trainers.append(Trainer(
                name=name,
                sim=self.sim,
                transport=self.testbed.transport,
                dht=self.dht,
                config=config,
                assignment=self.assignment,
                partitioner=self.partitioner,
                model=self._template.clone(initial),
                dataset=datasets[index],
                committers=self.committers,
                seed=config.seed + index,
                retry=profile.retry,
                directory_request_timeout=profile.directory_request_timeout,
                installs=self._installs,
            ))
        self.aggregators: List[Aggregator] = []
        for name in self.testbed.aggregator_names:
            partition_id = self.assignment.partition_of[name]
            self.aggregators.append(Aggregator(
                name=name,
                sim=self.sim,
                transport=self.testbed.transport,
                dht=self.dht,
                pubsub=self.pubsub,
                config=config,
                assignment=self.assignment,
                partition_len=self.partitioner.partition_size(partition_id),
                committer=self.committers.get(partition_id),
                behavior=behaviors.get(name),
                retry=profile.retry,
                directory_request_timeout=profile.directory_request_timeout,
            ))

        super().__init__(self.sim)

        #: participant name -> its supervised process for the current
        #: round (the handle the fault injector interrupts).
        self._round_processes: Dict[str, object] = {}
        self._injector: Optional[FaultInjector] = None
        if self.faults:
            self._injector = FaultInjector(self, self.faults)
            self._injector.start()

    # -- driving rounds ---------------------------------------------------------

    def _schedule(self, iteration: int) -> IterationSchedule:
        schedule = IterationSchedule.from_durations(
            iteration, self.sim.now, self.config.t_train, self.config.t_sync
        )
        # Arm the directory's gradient-registration cutoff so late
        # registrations can never enter the accumulated commitments.
        self.directory.state.begin_iteration(iteration, schedule.t_train)
        return schedule

    def _round(self, iteration: int, schedule: IterationSchedule):
        """Announce the schedule, then run every participant under
        supervision.  One whose link is down — at the start, or before its
        copy of the schedule arrived — cannot be told the schedule: it
        sits the round out, degraded."""
        self._installs.clear()  # whatever a round that raised left
        online = self.testbed.network.host_online
        supervised = self.trainers + self.aggregators
        unreachable = {p.name for p in supervised if not online(p.name)}
        unreachable.update((yield self.bootstrapper.announce(schedule, [
            p.name for p in supervised if p.name not in unreachable])))
        self._round_processes = {}
        processes = []
        for role, members in (("trainer", self.trainers),
                              ("aggregator", self.aggregators)):
            for participant in members:
                process = self._spawn_participant(
                    participant, role, schedule, unreachable)
                if process is not None:
                    processes.append(process)
        if processes:
            yield self.sim.all_of(processes)
        self._installs.clear()  # a replaced base dies with its round

    # -- supervision (fault tolerance) -----------------------------------------

    def _spawn_participant(self, participant, role: str,
                           schedule: IterationSchedule, unreachable):
        """Spawn one participant's supervised round process.

        Participants the schedule could not reach, or inside a crash
        window, are not spawned at all (they late-join from the round
        after their fault heals); the round records them as degraded.
        """
        if participant.name in unreachable:
            self._degrade(schedule.iteration, participant.name, role,
                          "unreachable at round start")
            return None
        if self._injector is not None \
                and self._injector.is_down(participant.name) is not None:
            self._degrade(schedule.iteration, participant.name, role,
                          "offline (fault window)")
            return None
        process = self.sim.process(
            self._supervised(participant, role, schedule),
            name=f"{participant.name}:i{schedule.iteration}",
        )
        self._round_processes[participant.name] = process
        return process

    def _supervised(self, participant, role: str,
                    schedule: IterationSchedule):
        """Run one participant round, absorbing injected failures.

        A fault-injected crash (:class:`Interrupt`) or an exhausted
        retry budget ends the participant's round, interrupts its
        orphaned child processes, and records the participant as
        degraded — the round itself carries on for everyone else.
        """
        completed_before = (participant.completed_iterations
                            if role == "trainer" else None)
        try:
            yield from participant.run_iteration(schedule)
        except Interrupt:
            self._interrupt_children(participant)
            self._degrade(schedule.iteration, participant.name, role,
                          "crashed (fault injection)")
            return
        except RetryExhaustedError as exc:
            self._interrupt_children(participant)
            self._degrade(schedule.iteration, participant.name, role,
                          f"retries exhausted ({exc.operation})")
            return
        if (self.faults is not None and role == "trainer"
                and participant.completed_iterations == completed_before):
            # Under churn, a trainer that silently aborted its round
            # (deadline missed, storage unreachable) is degradation the
            # accounting must show.
            self._degrade(schedule.iteration, participant.name, role,
                          "round not completed")

    def _interrupt_children(self, participant: Participant) -> None:
        for child in participant.active_children:
            if child.is_alive:
                child.interrupt("parent degraded")

    def _degrade(self, iteration: int, name: str, role: str,
                 reason: str) -> None:
        bus = self.sim.bus
        if bus.wants(ParticipantDegraded):
            bus.publish(ParticipantDegraded(
                at=self.sim.now, iteration=iteration, participant=name,
                role=role, reason=reason,
            ))

    # -- identity -----------------------------------------------------------------

    def fingerprint(self) -> Dict[str, object]:
        """A stable scenario description for run manifests.

        Covers the protocol config plus the deployment shape (role
        counts and the distinct link capacities), so two manifests
        compare apples-to-apples only when their digests match.
        """
        from ..obs.manifest import config_fingerprint

        capacities = sorted({
            (host.up_bandwidth, host.down_bandwidth)
            for host in self.testbed.network.hosts()
        })
        return config_fingerprint(
            self.config,
            trainers=len(self.trainers),
            aggregators=len(self.aggregators),
            ipfs_nodes=len(self.nodes),
            link_capacities=capacities,
        )

    # -- storage management --------------------------------------------------------

    def collect_garbage(self, keep_iterations: int = 1) -> float:
        """Reclaim storage from finished iterations.

        The paper: "in our protocol both gradients and updates [are] only
        needed for a short period of time".  Unpins every object from
        iterations older than the last ``keep_iterations`` on all nodes,
        withdraws their DHT records, and runs each node's GC.  Returns
        the number of bytes reclaimed network-wide.
        """
        cutoff = self._iteration - keep_iterations
        for entry in self.directory.state.entries_before(cutoff):
            for node in self.nodes:
                node.unpin_object(entry.cid)
        reclaimed = 0.0
        for node in self.nodes:
            before = node.store.total_bytes
            for cid in node.store.collect_garbage():
                self.dht.unprovide(cid, node.name)
            reclaimed += before - node.store.total_bytes
        return reclaimed

    @property
    def storage_bytes(self) -> float:
        """Bytes currently resident across all storage nodes."""
        return float(sum(node.store.total_bytes for node in self.nodes))
