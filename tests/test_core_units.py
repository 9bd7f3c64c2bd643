"""Unit tests for the core protocol's small building blocks:
addressing, partitioning, schedules, config, assignment, adversaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Address,
    AlterUpdateBehavior,
    DropGradientsBehavior,
    GRADIENT,
    HonestBehavior,
    IterationSchedule,
    LazyBehavior,
    ModelPartitioner,
    PARTIAL_UPDATE,
    ProtocolConfig,
    UPDATE,
    build_assignment,
    decode_partition,
    encode_partition,
    sum_encoded_partitions,
)
from repro.core.bootstrapper import optimal_provider_count


# -- addressing --------------------------------------------------------------------


def test_address_fields():
    addr = Address("trainer-3", 2, 7, GRADIENT)
    assert addr.uploader_id == "trainer-3"
    assert "gradient/p2/i7/trainer-3" == str(addr)


def test_address_validation():
    with pytest.raises(ValueError):
        Address("t", 0, 0, "bogus-kind")
    with pytest.raises(ValueError):
        Address("t", -1, 0, GRADIENT)
    with pytest.raises(ValueError):
        Address("t", 0, -1, UPDATE)


def test_address_hashable_and_frozen():
    a = Address("t", 0, 0, GRADIENT)
    b = Address("t", 0, 0, GRADIENT)
    assert a == b and hash(a) == hash(b)
    assert a != Address("t", 0, 0, PARTIAL_UPDATE)


# -- partitioning ---------------------------------------------------------------------


def test_partitioner_even_split():
    partitioner = ModelPartitioner(num_params=12, num_partitions=4)
    assert [partitioner.partition_size(i) for i in range(4)] == [3, 3, 3, 3]


def test_partitioner_uneven_split():
    partitioner = ModelPartitioner(num_params=10, num_partitions=3)
    assert [partitioner.partition_size(i) for i in range(3)] == [4, 3, 3]
    assert partitioner.bounds(0) == (0, 4)
    assert partitioner.bounds(2) == (7, 10)


def test_partitioner_split_join_roundtrip():
    partitioner = ModelPartitioner(num_params=11, num_partitions=3)
    vector = np.arange(11, dtype=np.float64)
    parts = partitioner.split(vector)
    np.testing.assert_array_equal(partitioner.join(parts), vector)


def test_partitioner_validation():
    with pytest.raises(ValueError):
        ModelPartitioner(0, 1)
    with pytest.raises(ValueError):
        ModelPartitioner(5, 6)
    partitioner = ModelPartitioner(10, 2)
    with pytest.raises(ValueError):
        partitioner.split(np.zeros(9))
    with pytest.raises(ValueError):
        partitioner.join([np.zeros(5)])
    with pytest.raises(ValueError):
        partitioner.join([np.zeros(4), np.zeros(6)])


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=20))
def test_partitioner_property(num_params, num_partitions):
    num_partitions = min(num_partitions, num_params)
    partitioner = ModelPartitioner(num_params, num_partitions)
    sizes = [partitioner.partition_size(i) for i in range(num_partitions)]
    assert sum(sizes) == num_params
    assert max(sizes) - min(sizes) <= 1
    vector = np.random.default_rng(0).normal(size=num_params)
    np.testing.assert_array_equal(
        partitioner.join(partitioner.split(vector)), vector
    )


def test_encode_decode_partition():
    values = np.array([1.5, -2.5, 3.0])
    blob = encode_partition(values, counter=1.0)
    assert len(blob) == 4 * 8
    decoded, counter = decode_partition(blob)
    np.testing.assert_array_equal(decoded, values)
    assert counter == 1.0


def test_decode_partition_validation():
    with pytest.raises(ValueError):
        decode_partition(b"short")
    with pytest.raises(ValueError):
        decode_partition(bytes(8))  # only one float64: no counter


def test_sum_encoded_partitions_sums_values_and_counters():
    a = encode_partition(np.array([1.0, 2.0]), counter=1.0)
    b = encode_partition(np.array([10.0, 20.0]), counter=1.0)
    values, counter = decode_partition(sum_encoded_partitions([a, b]))
    np.testing.assert_array_equal(values, [11.0, 22.0])
    assert counter == 2.0


def test_sum_encoded_partitions_validation():
    with pytest.raises(ValueError):
        sum_encoded_partitions([])
    a = encode_partition(np.zeros(2))
    b = encode_partition(np.zeros(3))
    with pytest.raises(ValueError):
        sum_encoded_partitions([a, b])


# -- schedules -----------------------------------------------------------------------


def test_schedule_from_durations():
    schedule = IterationSchedule.from_durations(
        iteration=3, start=100.0, train_duration=60.0, sync_duration=300.0
    )
    assert schedule.t_train == 160.0
    assert schedule.t_sync == 400.0
    assert schedule.remaining_sync(150.0) == 250.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        IterationSchedule(iteration=0, start=10.0, t_train=5.0, t_sync=20.0)
    with pytest.raises(ValueError):
        IterationSchedule(iteration=0, start=0.0, t_train=10.0, t_sync=10.0)


# -- config ---------------------------------------------------------------------------


def test_config_defaults_valid():
    config = ProtocolConfig()
    assert config.num_partitions == 4
    assert not config.verifiable


@pytest.mark.parametrize("kwargs", [
    {"num_partitions": 0},
    {"aggregators_per_partition": 0},
    {"t_train": 0.0},
    {"t_train": 100.0, "t_sync": 100.0},
    {"poll_interval": 0.0},
    {"providers_per_aggregator": -1},
    {"update_mode": "weights"},
    {"curve": "curve25519"},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ProtocolConfig(**kwargs)


# -- optimal providers (Sec. III-E closed form) ----------------------------------------


def test_optimal_provider_count_sqrt():
    assert optimal_provider_count(16) == 4
    assert optimal_provider_count(1) == 1
    assert optimal_provider_count(100) == 10


def test_optimal_provider_count_bandwidth_ratio():
    # b/d = 4 -> sqrt(4*16) = 8.
    assert optimal_provider_count(16, aggregator_bandwidth=4.0,
                                  node_bandwidth=1.0) == 8


def test_optimal_provider_count_validation():
    with pytest.raises(ValueError):
        optimal_provider_count(0)
    with pytest.raises(ValueError):
        optimal_provider_count(4, aggregator_bandwidth=0.0)


# -- assignment -------------------------------------------------------------------------


def make_names(trainers=8, aggregators=4, nodes=4):
    return (
        [f"trainer-{i}" for i in range(trainers)],
        [f"aggregator-{i}" for i in range(aggregators)],
        [f"ipfs-{i}" for i in range(nodes)],
    )


def test_assignment_partitions_aggregators():
    trainers, aggregators, nodes = make_names(aggregators=4)
    config = ProtocolConfig(num_partitions=2, aggregators_per_partition=2)
    assignment = build_assignment(config, trainers, aggregators, nodes)
    assert assignment.num_partitions == 2
    for partition in range(2):
        assert len(assignment.aggregators_for[partition]) == 2
    for name in aggregators:
        assert assignment.partition_of[name] in (0, 1)


def test_assignment_trainer_sets_partition_all_trainers():
    """For every partition: T = union of T_ij, and the T_ij are disjoint."""
    trainers, aggregators, nodes = make_names(trainers=10, aggregators=4)
    config = ProtocolConfig(num_partitions=2, aggregators_per_partition=2)
    assignment = build_assignment(config, trainers, aggregators, nodes)
    for partition in range(2):
        union = []
        for owner in assignment.aggregators_for[partition]:
            union.extend(assignment.trainers_of[(partition, owner)])
        assert sorted(union) == sorted(trainers)  # union = T, no overlap


def test_assignment_aggregator_of_consistent():
    trainers, aggregators, nodes = make_names()
    config = ProtocolConfig(num_partitions=4, aggregators_per_partition=1)
    assignment = build_assignment(config, trainers, aggregators, nodes)
    for trainer in trainers:
        for partition in range(4):
            owner = assignment.aggregator_of[(trainer, partition)]
            assert trainer in assignment.trainers_of[(partition, owner)]


def test_assignment_provider_counts():
    trainers, aggregators, nodes = make_names(trainers=16, aggregators=1,
                                              nodes=8)
    config = ProtocolConfig(num_partitions=1, aggregators_per_partition=1,
                            providers_per_aggregator=0,
                            merge_and_download=True)
    assignment = build_assignment(config, trainers, aggregators, nodes)
    # auto: sqrt(16) = 4 providers
    assert len(assignment.providers_of["aggregator-0"]) == 4


def test_assignment_explicit_provider_count_capped():
    trainers, aggregators, nodes = make_names(nodes=3)
    config = ProtocolConfig(num_partitions=4, providers_per_aggregator=8)
    assignment = build_assignment(config, trainers, aggregators, nodes)
    for name in aggregators:
        assert len(assignment.providers_of[name]) == 3


def test_assignment_upload_nodes_in_providers_when_merging():
    trainers, aggregators, nodes = make_names(trainers=16, aggregators=1,
                                              nodes=8)
    config = ProtocolConfig(num_partitions=1, merge_and_download=True,
                            providers_per_aggregator=4)
    assignment = build_assignment(config, trainers, aggregators, nodes)
    providers = set(assignment.providers_of["aggregator-0"])
    for trainer in trainers:
        assert assignment.upload_node[(trainer, 0)] in providers


def test_assignment_wrong_aggregator_count():
    trainers, aggregators, nodes = make_names(aggregators=3)
    config = ProtocolConfig(num_partitions=2, aggregators_per_partition=2)
    with pytest.raises(ValueError, match="exactly 4 aggregators"):
        build_assignment(config, trainers, aggregators, nodes)


def test_assignment_needs_participants():
    config = ProtocolConfig(num_partitions=1, aggregators_per_partition=1)
    with pytest.raises(ValueError):
        build_assignment(config, [], ["aggregator-0"], ["ipfs-0"])
    with pytest.raises(ValueError):
        build_assignment(config, ["t"], ["aggregator-0"], [])


def test_assignment_peers_of():
    trainers, aggregators, nodes = make_names(aggregators=4)
    config = ProtocolConfig(num_partitions=2, aggregators_per_partition=2)
    assignment = build_assignment(config, trainers, aggregators, nodes)
    partition = assignment.partition_of["aggregator-0"]
    peers = assignment.peers_of("aggregator-0")
    assert len(peers) == 1
    assert assignment.partition_of[peers[0]] == partition


# -- adversary behaviours ---------------------------------------------------------------


def blob_of(values, counter=1.0):
    return encode_partition(np.array(values, dtype=float), counter)


def test_honest_behavior_passthrough():
    behavior = HonestBehavior()
    blobs = {"a": blob_of([1.0]), "b": blob_of([2.0])}
    assert behavior.select_gradients(blobs) == blobs
    blob = blob_of([3.0])
    assert behavior.tamper_update(blob) == blob


def test_drop_behavior_drops():
    behavior = DropGradientsBehavior(keep_fraction=0.5)
    blobs = {f"t{i}": blob_of([float(i)]) for i in range(4)}
    kept = behavior.select_gradients(blobs)
    assert len(kept) == 2
    assert set(kept) < set(blobs)


def test_drop_behavior_validation():
    with pytest.raises(ValueError):
        DropGradientsBehavior(keep_fraction=1.0)


def test_alter_behavior_changes_values_keeps_counter():
    behavior = AlterUpdateBehavior(offset=5.0)
    tampered = behavior.tamper_update(blob_of([1.0, 2.0], counter=3.0))
    values, counter = decode_partition(tampered)
    np.testing.assert_array_equal(values, [6.0, 7.0])
    assert counter == 3.0


def test_lazy_behavior_keeps_first_k():
    behavior = LazyBehavior(max_gradients=2)
    blobs = {f"t{i}": blob_of([float(i)]) for i in range(5)}
    assert len(behavior.select_gradients(blobs)) == 2
    with pytest.raises(ValueError):
        LazyBehavior(max_gradients=0)
