"""The NetworkProfile API: the composable profile, the one session
signature, and the curated top-level ``repro`` surface."""

import argparse
import dataclasses
import inspect

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    FLSession,
    NetworkProfile,
    ProtocolConfig,
    RetryPolicy,
)
from repro.ml import LogisticRegression, make_classification, split_iid
from tests.util import PatientRetry


def make_shards(num_trainers=4, seed=0):
    data = make_classification(num_samples=120, num_features=6,
                               class_separation=3.0, seed=seed)
    return split_iid(data, num_trainers, seed=seed)


def factory():
    return LogisticRegression(num_features=6, num_classes=2, seed=0)


def config():
    return ProtocolConfig(num_partitions=2, t_train=300.0, t_sync=600.0)


# -- profile validation -----------------------------------------------------------


def test_default_profile_matches_legacy_defaults():
    profile = NetworkProfile()
    assert profile.num_ipfs_nodes == 8
    assert profile.bandwidth_mbps == 10.0
    # Robustness knobs default to the legacy behaviour (single attempt,
    # wait forever) so honest runs stay bit-identical.
    assert profile.retry is None
    assert profile.directory_request_timeout is None


@pytest.mark.parametrize("kwargs", [
    {"num_ipfs_nodes": 0},
    {"bandwidth_mbps": 0.0},
    {"aggregator_bandwidth_mbps": -1.0},
    {"trainer_bandwidths_mbps": (10.0, -1.0)},
    {"latency": -0.1},
    {"trainer_bandwidths_mbps": (0.0,)},
    {"replication_factor": 0},
    {"directory_request_timeout": 0.0},
])
def test_profile_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        NetworkProfile(**kwargs)


# -- one session signature ---------------------------------------------------------


def test_loose_network_kwargs_raise_type_error():
    """The pre-profile keyword arguments are gone, not deprecated."""
    for kwargs in ({"num_ipfs_nodes": 4}, {"bandwidth_mbps": 12.0},
                   {"directory_processing_delay": 0.001}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            FLSession(config(), factory, make_shards(), **kwargs)
    with pytest.raises(TypeError, match="unexpected keyword"):
        NetworkProfile(directory_processing_delay=0.001)


def test_new_path_defaults_match_no_arguments_at_all():
    shards = make_shards()
    bare = FLSession(config(), factory, shards)
    explicit = FLSession(config(), factory, shards,
                         network=NetworkProfile())
    assert bare.fingerprint() == explicit.fingerprint()


def test_unknown_kwarg_raises_type_error():
    with pytest.raises(TypeError, match="unexpected keyword"):
        FLSession(config(), factory, make_shards(), bandwith_mbps=10.0)


# -- fault-plan robustness defaults ------------------------------------------------


def brownout_plan():
    return FaultPlan([
        FaultSpec(kind="directory_brownout", at=1.0,
                  processing_delay=1.0, duration=5.0)],
    )


def test_fault_plan_turns_robustness_knobs_on():
    shards = make_shards()
    session = FLSession(config(), factory, shards, faults=brownout_plan())
    assert session.network_profile.retry == RetryPolicy()
    assert session.network_profile.directory_request_timeout == 15.0


def test_explicit_robustness_knobs_survive_fault_plan():
    shards = make_shards()
    policy = PatientRetry()
    pinned = NetworkProfile(retry=policy, directory_request_timeout=3.0)
    session = FLSession(config(), factory, shards, network=pinned,
                        faults=brownout_plan())
    assert session.network_profile.retry is policy
    assert session.network_profile.directory_request_timeout == 3.0


def test_no_fault_plan_keeps_legacy_single_attempt():
    shards = make_shards()
    session = FLSession(config(), factory, shards)
    assert session.network_profile.retry is None
    assert session.network_profile.directory_request_timeout is None
    assert session.faults is None


def test_empty_fault_plan_counts_as_honest():
    shards = make_shards()
    session = FLSession(config(), factory, shards, faults=FaultPlan())
    assert session.faults is None
    assert session.network_profile.retry is None


# -- the curated public surface ----------------------------------------------------


def test_public_surface_only_shrinks():
    """API ratchet: lower these numbers when something goes, never
    raise them to make room."""
    import repro

    assert len(repro.__all__) <= 20
    parameters = inspect.signature(FLSession.__init__).parameters
    assert list(parameters) == [
        "self", "config", "model_factory", "datasets", "network", "faults",
        "directory", "behaviors",
    ]
    assert not any(p.kind is p.VAR_KEYWORD for p in parameters.values())
    profile_fields = {f.name for f in dataclasses.fields(NetworkProfile)}
    assert "directory_processing_delay" not in profile_fields
    # One DHT (the provider table) and one retrieval path (`get`).
    assert "dht_mode" not in profile_fields
    # The DHT lookup delay and the IPFS request timeout are constants.
    assert not {"dht_lookup_delay", "ipfs_request_timeout"} & profile_fields
    # Centralized FedAvg is the one-partition direct IPLS, options and all;
    # each directory verb states its own wire shape (no request table).
    import repro.core.directory
    from repro.baselines import CentralizedSession, DirectIPLSSession

    assert inspect.signature(CentralizedSession.__init__).parameters \
        == inspect.signature(DirectIPLSSession.__init__).parameters
    assert not [name for name in vars(repro.core.directory)
                if name.lower().startswith("request")]

    import repro.analysis
    import repro.ipfs
    import repro.obs
    import repro.sim
    from repro.core.verification import PartitionCommitter
    from repro.obs import EventBus, MetricsRegistry
    from repro.sim import Simulator

    assert not hasattr(repro.ipfs.IPFSClient, "get_striped")
    assert len(repro.ipfs.__all__) <= 27
    assert len(repro.sim.__all__) <= 14
    # Events live in `repro.obs.events` only; a histogram is a sketch.
    assert len(repro.obs.__all__) <= 46
    assert list(inspect.signature(MetricsRegistry.__init__).parameters) \
        == ["self", "bus", "counters"]
    assert len(repro.analysis.__all__) <= 21
    # Exact N is the scale story: no statistical cohorts, no scale or
    # sharding sweep and no event sampling that only they used.
    import repro.core

    assert len(repro.core.__all__) <= 41
    assert not hasattr(EventBus, "admits")
    # One `run` writes one bundle and `explain` reads two of them; the
    # eight subcommands that each rebuilt that session stay gone.
    from repro.cli import build_parser

    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)).choices
    assert sorted(subcommands) == sorted(
        "train reproduce run explain status".split())

    def flags(subcommand):
        return {option for action in subcommands[subcommand]._actions
                for option in action.option_strings} - {"-h", "--help"}

    assert flags("run") == set(
        "--trainers --rounds --partitions --aggregators-per-partition "
        "--ipfs-nodes --bandwidth-mbps --params --merge-and-download "
        "--verifiable --seed --providers --plan "
        "--request-timeout --inject --expect-anomaly --warn-only "
        "--artifacts".split())
    assert flags("explain") == {"--threshold", "--json"}
    # The host profile is cProfile from outside: no layer carries a
    # hook for it, and the two hot loops have one body each.
    for hooked in (Simulator(), EventBus(),
                   PartitionCommitter(partition_len=1)):
        assert not hasattr(hooked, "profiler"), type(hooked).__name__
    for hot in (Simulator.step, EventBus.publish):
        assert "profiler" not in inspect.getsource(hot), hot.__qualname__


def test_top_level_surface_is_complete():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    # The headline types are importable from the package root.
    from repro import (  # noqa: F401
        EventBus,
        FaultPlan,
        FLSession,
        NetworkProfile,
        ProtocolConfig,
        SessionMetrics,
    )
