"""Tests for the sharded directory deployment (repro.core.dirshard and
the server group / client in repro.core.directory).

Covers the DirectoryProfile surface, key placement, the invisibility of
the one-shard group (fingerprint- and counter-identical to a session
built without a profile), load distribution and the ``dir.shard.*``
counters, the shard-order merge of the commitment accumulators,
failover across replicas, shard-targeted brownouts, the one client
class, and the registrations/sec trajectory the sharding exists to
improve.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Address,
    DirectoryClient,
    DirectoryProfile,
    FLSession,
    GRADIENT,
    PARTIAL_UPDATE,
    PartitionCommitter,
    ProtocolConfig,
    ShardMap,
    ShardedDirectory,
    UPDATE,
)
from repro.crypto import Commitment, PedersenParams, SECP256K1
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.ipfs import DHT, compute_cid
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import Network, NetworkProfile, Transport, mbps
from repro.obs import CountersRegistry, FlightRecorder, InvariantMonitors
from repro.sim import Simulator

NUM_TRAINERS = 4


def make_config(**overrides):
    kwargs = dict(num_partitions=2, t_train=400.0, t_sync=800.0,
                  update_mode="gradient", poll_interval=0.25)
    kwargs.update(overrides)
    return ProtocolConfig(**kwargs)


def make_shards():
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=0)
    return split_iid(data, NUM_TRAINERS, seed=0)


def model_factory():
    return LogisticRegression(num_features=8, num_classes=2, seed=0)


def make_session(directory=None, faults=None, **overrides):
    return FLSession(
        make_config(**overrides), model_factory, make_shards(),
        network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
        directory=directory, faults=faults,
    )


# -- DirectoryProfile validation --------------------------------------------------


def test_profile_defaults_are_single_server():
    profile = DirectoryProfile()
    assert profile.shards == 1
    assert profile.replication == 1
    assert profile.placement == "consistent-hash"


@pytest.mark.parametrize("kwargs", [
    dict(shards=0),
    dict(replication=0),
    dict(shards=2, replication=3),
    dict(placement="round-robin"),
    dict(processing_delay=-1.0),
    dict(bandwidth_mbps=0.0),
])
def test_profile_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        DirectoryProfile(**kwargs)


# -- ShardMap placement -----------------------------------------------------------


def test_shard_map_owner_count_and_determinism():
    names = [f"directory-shard-{i}" for i in range(4)]
    for placement in ("consistent-hash", "modulo"):
        shard_map = ShardMap(names, replication=2, placement=placement)
        for partition_id in range(8):
            owners = shard_map.owners(partition_id, 0)
            assert len(owners) == 2
            assert len(set(owners)) == 2
            assert set(owners) <= set(names)
            assert owners == shard_map.owners(partition_id, 0)
            assert shard_map.primary(partition_id, 0) == owners[0]
    # Consistent-hash placement is a pure function of the names: these
    # owners are the ones every earlier run placed on.
    pinned = ShardMap(["dir-0", "dir-1", "dir-2", "dir-3"], replication=2)
    assert pinned.owners(0, 0) == ("dir-2", "dir-3")
    assert pinned.owners(1, 0) == ("dir-1", "dir-0")
    assert pinned.owners(2, 0) == ("dir-3", "dir-2")
    assert pinned.owners(3, 7) == ("dir-0", "dir-1")


def test_modulo_placement_spreads_primaries_evenly():
    names = [f"directory-shard-{i}" for i in range(4)]
    shard_map = ShardMap(names, placement="modulo")
    primaries = {shard_map.primary(p, 0) for p in range(4)}
    assert primaries == set(names)


def test_replication_is_capped_at_shard_count():
    shard_map = ShardMap(["s0", "s1"], replication=5)
    assert shard_map.replication == 2
    assert len(shard_map.owners(0, 0)) == 2


# -- shards=1 is the classic single server, byte for byte -------------------------


def test_shards_one_is_identical_to_unsharded():
    def run_once(directory):
        session = make_session(directory=directory)
        counters = CountersRegistry(session.sim.bus)
        session.run(rounds=1)
        return session.fingerprint(), counters.snapshot(), session.sim.now

    base_fp, base_counters, base_now = run_once(None)
    one_fp, one_counters, one_now = run_once(DirectoryProfile(shards=1))
    assert one_fp == base_fp
    assert one_counters == base_counters
    assert one_now == base_now


# -- sharded deployments ----------------------------------------------------------


def test_sharded_session_distributes_load_and_counts():
    session = make_session(directory=DirectoryProfile(shards=2,
                                                      placement="modulo"))
    counters = CountersRegistry(session.sim.bus)
    session.run(rounds=1)

    directory = session.directory
    assert isinstance(directory, ShardedDirectory)
    assert directory.shard_names == ["directory-shard-0",
                                    "directory-shard-1"]
    # Both partitions registered gradients, so with modulo placement
    # both shards served registrations.
    for name in directory.shard_names:
        assert directory.shard(name).register_count > 0
    assert directory.register_count == sum(
        directory.shard(name).register_count
        for name in directory.shard_names
    )
    snapshot = counters.snapshot()
    assert snapshot["dir.shard.requests"] == snapshot["directory.requests"]
    per_shard = sum(
        snapshot[f"dir.shard.{name}.requests"]
        for name in directory.shard_names
    )
    assert per_shard == snapshot["dir.shard.requests"]


def test_every_participant_holds_the_one_client_class():
    for shards in (1, 2):
        session = make_session(directory=DirectoryProfile(shards=shards))
        assert isinstance(session.directory, ShardedDirectory)
        assert len(session.directory.shards) == shards
        participants = session.trainers + session.aggregators
        assert len(participants) > NUM_TRAINERS
        for participant in participants:
            assert type(participant.directory) is DirectoryClient
            # ... placing keys through the session's one shared map.
            shard_map = participant.directory.shard_map
            assert shard_map is session._shard_map
            assert list(shard_map.shard_names) \
                == session.directory.shard_names


def test_one_shard_group_lives_on_the_well_known_host():
    session = make_session()
    assert session.directory.shard_names == ["directory"]
    assert session.directory.shard("directory").shard_label is None


# -- the merged accumulator -------------------------------------------------------


def test_merged_accumulator_matches_single_server():
    def run_once(directory):
        session = make_session(directory=directory, verifiable=True)
        monitors = InvariantMonitors(session.sim.bus)
        session.run(rounds=1)
        assert monitors.finalize() == []
        return {
            partition_id: session.directory.accumulated_commitment(
                partition_id, 0)
            for partition_id in range(2)
        }

    base = run_once(None)
    sharded = run_once(DirectoryProfile(shards=3, placement="modulo"))
    for partition_id in range(2):
        base_total, base_count = base[partition_id]
        shard_total, shard_count = sharded[partition_id]
        assert base_count == shard_count > 0
        assert base_total.to_bytes() == shard_total.to_bytes()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fold_order_never_changes_the_merged_commitment(data):
    """Shard-local subtotals folded in any shard order equal the
    arrival-order product — the algebra the sharded accumulator relies
    on (EC-point addition is commutative and associative)."""
    params = _pedersen_params()
    vectors = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=2**16),
                 min_size=1, max_size=4),
        min_size=1, max_size=8,
    ))
    num_shards = data.draw(st.integers(min_value=1, max_value=4))
    assignment = data.draw(st.lists(
        st.integers(min_value=0, max_value=num_shards - 1),
        min_size=len(vectors), max_size=len(vectors),
    ))
    commitments = [params.commit(vector) for vector in vectors]

    arrival_order = Commitment.product(commitments, SECP256K1)

    subtotals = []
    for shard in range(num_shards):
        local = [c for c, owner in zip(commitments, assignment)
                 if owner == shard]
        if local:
            subtotals.append(Commitment.product(local, SECP256K1))
    shard_order = Commitment.product(subtotals, SECP256K1)

    assert shard_order.to_bytes() == arrival_order.to_bytes()


_PARAMS_CACHE = []


def _pedersen_params():
    if not _PARAMS_CACHE:
        _PARAMS_CACHE.append(PedersenParams.setup(SECP256K1, 4))
    return _PARAMS_CACHE[0]


_COMMITTER_CACHE = []


def _committer():
    if not _COMMITTER_CACHE:
        _COMMITTER_CACHE.append(PartitionCommitter(4))
    return _COMMITTER_CACHE[0]


# -- sharding invariance: one client, any group ------------------------------------

UPLOADERS = ["t0", "t1", "t2", "t3"]
ASSIGNMENT = {(uploader, partition): f"agg-{index % 2}"
              for index, uploader in enumerate(UPLOADERS)
              for partition in range(3)}
GROUPS = [(shards, replication, placement)
          for shards in (1, 2, 3)
          for replication in (1, 2) if replication <= shards
          for placement in ("consistent-hash", "modulo")]


def make_group(shards, replication, placement):
    """A bare directory group and one client of it (no session)."""
    sim = Simulator()
    network = Network(sim)
    names = (["directory"] if shards == 1
             else [f"directory-shard-{i}" for i in range(shards)])
    for name in names + ["client-0"]:
        network.add_host(name, up_bandwidth=mbps(50))
    transport = Transport(network)
    for name in names:
        transport.endpoint(name)
    committer = _committer()
    directory = ShardedDirectory(
        sim, transport, DHT(sim, lookup_delay=0.0), shard_names=names,
        committers={partition: committer for partition in range(3)},
        trainer_assignment=ASSIGNMENT,
    )
    client = DirectoryClient(
        "client-0", transport,
        ShardMap(names, replication=replication, placement=placement),
    )
    return sim, directory, client


def drive(group, operations):
    """Run ``operations`` through the client; returns what it observed
    (acks, lookup rows as sets, accumulated bytes + counts) and the
    group's final state."""
    sim, directory, client = group
    params = _pedersen_params()
    cids = [compute_cid(b"blob-%d" % index) for index in range(4)]
    commitments = [params.commit([index + 1, 2, 3, 4]) for index in range(4)]

    def record(row):
        uploader, partition, iteration, kind, blob = row
        return {"address": Address(uploader, partition, iteration, kind),
                "cid": cids[blob],
                "commitment": commitments[blob] if kind == GRADIENT
                else None}

    def scenario():
        observed = []
        for op in operations:
            if op[0] == "register":
                observed.append(
                    (yield from client.register(**record(op[1]))))
            elif op[0] == "batch":
                observed.append((yield from client.register_batch(
                    [record(row) for row in op[1]])))
            elif op[0] == "lookup":
                rows = yield from client.lookup(*op[1:])
                observed.append({
                    (row["uploader_id"], str(row["cid"]),
                     row["commitment"] and row["commitment"].to_bytes())
                    for row in rows
                })
            else:
                total, count = yield from client.accumulated(*op[1:])
                observed.append((total and total.to_bytes(), count))
        return observed

    process = sim.process(scenario())
    sim.run()
    assert process.ok, process.value
    stored = sum(len(shard._entries) for shard in directory.shards)
    return process.value, stored, directory.lookup_count


registrations = st.tuples(
    st.sampled_from(UPLOADERS), st.integers(0, 2), st.integers(0, 1),
    st.sampled_from([GRADIENT, GRADIENT, PARTIAL_UPDATE, UPDATE]),
    st.integers(0, 3),
)
aggregator_ids = st.sampled_from([None, "agg-0", "agg-1"])
operation = st.one_of(
    registrations.map(lambda row: ("register", row)),
    st.lists(registrations.filter(lambda row: row[3] == GRADIENT),
             min_size=1, max_size=4).map(lambda rows: ("batch", rows)),
    st.tuples(st.just("lookup"), st.integers(0, 2), st.integers(0, 1),
              st.sampled_from([GRADIENT, PARTIAL_UPDATE, UPDATE]),
              aggregator_ids, st.sampled_from([None] + UPLOADERS)),
    st.tuples(st.just("accumulated"), st.integers(0, 2),
              st.integers(0, 1), aggregator_ids),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(operation, min_size=1, max_size=24))
def test_sharding_is_invisible_through_the_one_client(operations):
    """The same register / re-register / batch / lookup / accumulated
    sequence gives the same acks, rows, accumulated bytes and counts
    whatever the shard count, replication and placement."""
    reference = drive(make_group(1, 1, "consistent-hash"), operations)
    for shards, replication, placement in GROUPS[1:]:
        assert drive(make_group(shards, replication, placement),
                     operations) == reference, (shards, replication,
                                                placement)


# -- faults: brownout and failover ------------------------------------------------


def test_shard_targeted_brownout_stays_clean():
    plan = FaultPlan.of(
        FaultSpec(kind="directory_brownout", at=0.5,
                  target="directory-shard-0",
                  processing_delay=0.05, duration=30.0),
        seed=11,
    )
    session = make_session(
        directory=DirectoryProfile(shards=2, placement="modulo"),
        faults=plan, verifiable=True,
    )
    recorder = FlightRecorder(session.sim.bus)
    monitors = InvariantMonitors(session.sim.bus)
    session.run(rounds=1)
    monitors.finalize()
    recorder.close()
    # A slow shard is a latency event, not misbehaviour: the blame
    # report stays empty and every invariant holds.
    assert recorder.incidents == []
    assert monitors.clean
    assert session.directory.register_count > 0


def test_brownout_target_must_name_a_shard():
    plan = FaultPlan.of(
        FaultSpec(kind="directory_brownout", at=0.5, target="directory",
                  processing_delay=0.05, duration=30.0),
    )
    with pytest.raises(ValueError):
        make_session(directory=DirectoryProfile(shards=2), faults=plan)


def test_one_shard_group_accepts_a_brownout_naming_its_host():
    plan = FaultPlan.of(
        FaultSpec(kind="directory_brownout", at=0.5, target="directory",
                  processing_delay=0.05, duration=30.0),
    )
    session = make_session(faults=plan)
    server = session.directory.shard("directory")
    session.sim.run(until=1.0)
    assert server.processing_delay == 0.05
    session.sim.run(until=31.0)
    assert server.processing_delay == 0.0
    with pytest.raises(ValueError, match="unknown directory shard"):
        make_session(faults=FaultPlan.of(FaultSpec(
            kind="directory_brownout", at=0.5, target="directory-shard-0",
            processing_delay=0.05, duration=30.0)))


def test_whole_service_brownout_restores_each_shards_own_delay():
    """A whole-service brownout that starts and ends inside a targeted
    one must hand shard 0 back its browned-out delay, not the base."""
    plan = FaultPlan.of(
        FaultSpec(kind="directory_brownout", at=1.0,
                  target="directory-shard-0",
                  processing_delay=0.05, duration=100.0),
        FaultSpec(kind="directory_brownout", at=2.0,
                  processing_delay=0.2, duration=10.0),
    )
    session = make_session(
        directory=DirectoryProfile(shards=2, processing_delay=0.001),
        faults=plan,
    )
    delays = lambda: [shard.processing_delay
                      for shard in session.directory.shards]
    session.sim.run(until=1.5)
    assert delays() == [0.05, 0.001]
    session.sim.run(until=3.0)
    assert delays() == [0.2, 0.2]
    session.sim.run(until=13.0)
    assert delays() == [0.05, 0.001]
    session.sim.run(until=102.0)
    assert delays() == [0.001, 0.001]


def test_router_fails_over_to_the_replica_when_the_primary_is_down():
    """With replication=2 both shards own every key, so a hard outage
    of one shard degrades only latency: the retrying router exhausts
    the primary and lands every request on the replica."""
    plan = FaultPlan.of(
        FaultSpec(kind="link_down", at=0.0, target="directory-shard-0",
                  duration=10_000.0),
        seed=3,
    )
    session = make_session(
        directory=DirectoryProfile(shards=2, replication=2,
                                   placement="modulo"),
        faults=plan,
    )
    monitors = InvariantMonitors(session.sim.bus)
    session.run(rounds=1)
    assert monitors.finalize() == []
    directory = session.directory
    assert directory.shard("directory-shard-0").register_count == 0
    assert directory.shard("directory-shard-1").register_count > 0


# -- the profile is the only processing-delay and link knob -------------------------


def test_profile_overrides_the_network_processing_delay():
    session = make_session(
        directory=DirectoryProfile(shards=2, processing_delay=0.002),
    )
    for name in session.directory.shard_names:
        assert session.directory.shard(name).processing_delay == 0.002


def test_profile_bandwidth_constrains_the_one_shard_host_too():
    from repro.net.units import mbps

    for shards in (1, 2):
        session = make_session(
            directory=DirectoryProfile(shards=shards, bandwidth_mbps=1.0))
        for name in session.directory.shard_names:
            host = session.testbed.network.host(name)
            assert host.up_bandwidth == host.down_bandwidth == mbps(1.0)
    unconstrained = make_session().testbed.network.host("directory")
    assert unconstrained.up_bandwidth == float("inf")


# -- the point of it all: registrations/sec ---------------------------------------


def test_registrations_per_second_improves_with_shard_count():
    """Sustained registrations/sec — registrations over the busiest
    shard's serialized seconds — of one exact round, one shard against
    two under modulo placement (one partition per shard)."""
    def one_round(shards):
        session = make_session(directory=DirectoryProfile(
            shards=shards, placement="modulo", processing_delay=2e-5))
        session.run(rounds=1)
        return session.directory

    single, double = one_round(1), one_round(2)
    assert single.register_count == double.register_count > 0
    # Equal registrations, so 1.5x the throughput is 1/1.5 the busiest
    # shard's serialized seconds.
    assert single.max_busy_seconds > 1.5 * double.max_busy_seconds
    assert min(shard.served_units for shard in double.shards) \
        > 0.25 * double.served_units
