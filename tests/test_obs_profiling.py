"""Tests for the host-cost profiler (repro.obs.profiling).

Pins the module's contracts: the profile is the benchmark's package
partition (exclusive self times that sum to the profiled time), runs
are byte-identical with profiling on or off, and on a fake clock the
profile itself is deterministic.  No test reads the host clock.
"""

import gc
import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core import FLSession, ProtocolConfig
from repro.ml import Dataset, SyntheticModel
from repro.net import NetworkProfile
from repro.obs import (
    HostProfile,
    HostProfiler,
    MetricsRegistry,
    RunManifest,
    SYSTEM_WALL_CLOCK,
)
from repro.obs.profiling import (
    FakeWallClock,
    LAYERS,
    ScopeStat,
    WallClock,
    fold_by_package,
)
from repro.sim import Simulator


def _small_session(seed=3, params=500, trainers=4, verifiable=True):
    config = ProtocolConfig(
        num_partitions=2, t_train=600.0, t_sync=1200.0,
        update_mode="gradient", poll_interval=0.25,
        verifiable=verifiable, seed=seed,
    )
    datasets = [
        Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
        for index in range(trainers)
    ]
    return FLSession(
        config, lambda: SyntheticModel(params), datasets,
        network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
    )


def _profiled_run(rounds=1):
    """One observed session under a ticking fake clock -> HostProfile.

    Garbage of an earlier session finalised inside the window (its
    suspended generators are ``close()``d) would be profiled calls, so
    it is collected first and the collector held off meanwhile.
    """
    session = _small_session()
    registry = MetricsRegistry(session.sim.bus)
    profiler = HostProfiler(clock=FakeWallClock(tick=1e-6))
    gc.collect()
    gc.disable()
    try:
        profiler.install(session.sim)
        session.run(rounds=rounds)
        profiler.uninstall()
    finally:
        gc.enable()
    registry.close()
    return session, profiler.profile(fingerprint=session.fingerprint())


@pytest.fixture(scope="module")
def warm():
    """``(session, profile)`` of a second run: the first one in a
    process also pays (and profiles) the lazy imports."""
    _profiled_run()
    return _profiled_run()


# -- wall clocks -----------------------------------------------------------------


def test_system_wall_clock_is_monotonic():
    first = SYSTEM_WALL_CLOCK.nanoseconds()
    second = SYSTEM_WALL_CLOCK.nanoseconds()
    assert second >= first
    assert isinstance(SYSTEM_WALL_CLOCK.seconds(), float)
    assert isinstance(SYSTEM_WALL_CLOCK, WallClock)


def test_fake_wall_clock_ticks_per_read_and_advances():
    clock = FakeWallClock(start=1.0, tick=0.5)
    assert clock.seconds() == 1.0
    assert clock.seconds() == 1.5
    clock.advance(10.0)
    assert clock.seconds() == 12.0
    assert clock.reads == 3
    with pytest.raises(ValueError):
        clock.advance(-1.0)


# -- the fold --------------------------------------------------------------------


def test_fold_charges_off_repo_time_through_the_callers_table():
    """A hand-built stats table: own time goes to the defining package,
    builtin / numpy time to whoever called it (split by the callers'
    cumulative time when several did), a caller-less builtin and a
    ``repro`` package outside the layer set to ``other``."""
    step = ("/x/src/repro/sim/core.py", 10, "step")
    put = ("/x/src/repro/ipfs/node.py", 20, "put")
    main = ("/x/src/repro/cli.py", 5, "main")
    helper = ("/x/src/repro/analysis/scale.py", 7, "run")
    sha = ("~", 0, "<built-in method _hashlib.openssl_sha256>")
    asarray = ("/lib/numpy/core/numeric.py", 1, "asarray")
    empty = ("~", 0, "<built-in method numpy.empty>")
    disable = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        main: (1, 1, 0.5, 9.0, {}),
        step: (4, 4, 1.0, 8.0, {main: (4, 4, 1.0, 8.0)}),
        put: (2, 2, 2.0, 6.0, {step: (2, 2, 2.0, 6.0)}),
        helper: (1, 1, 0.25, 0.25, {main: (1, 1, 0.25, 0.25)}),
        sha: (3, 3, 3.0, 3.0, {put: (3, 3, 3.0, 3.0)}),
        # numpy wrapper called from two packages, 3:1 by total time.
        asarray: (4, 4, 0.4, 1.2, {put: (3, 3, 0.3, 0.9),
                                   step: (1, 1, 0.1, 0.3)}),
        empty: (4, 4, 0.8, 0.8, {asarray: (4, 4, 0.8, 0.8)}),
        disable: (1, 1, 0.125, 0.125, {}),
    }
    scopes = fold_by_package(stats)
    assert scopes[("sim", "core", "step")] \
        == [4, pytest.approx(1.0 + 0.1 + 0.8 * 0.25), 8.0]
    assert scopes[("ipfs", "node", "put")] \
        == [2, pytest.approx(2.0 + 3.0 + 0.3 + 0.8 * 0.75), 6.0]
    assert scopes[("other", "cli", "main")] == [1, 0.5, 9.0]
    assert scopes[("other", "scale", "run")] == [1, 0.25, 0.25]
    assert scopes[("other", "builtin", disable[2])] == [1, 0.125, 0.125]
    assert len(scopes) == 5  # off-repo functions own no scope
    assert sum(stat[1] for stat in scopes.values()) \
        == pytest.approx(sum(entry[2] for entry in stats.values()))


def test_fold_is_the_benchmarks_partition_on_a_real_run():
    """``benchmarks/perf/trace.py`` folds its own cProfile run into the
    ``*.self_s`` the benchmark reports; the same stats through
    :func:`fold_by_package` give the same seconds per layer."""
    spec = importlib.util.spec_from_file_location(
        "perf_trace", pathlib.Path(__file__).resolve().parents[1]
        / "benchmarks" / "perf" / "trace.py")
    perf_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_trace)
    assert perf_trace.LAYERS == LAYERS

    session = _small_session()
    registry = MetricsRegistry(session.sim.bus)
    tracer = perf_trace.Tracer()
    tracer.enable()
    session.run(rounds=1)
    tracer.disable()
    registry.close()
    expected = tracer.fold()["self_s"]
    folded = dict.fromkeys(expected, 0.0)
    for (layer, _module, _name), stat in \
            fold_by_package(tracer.stats).items():
        folded[layer] += stat[1]
    assert folded == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert sum(folded.values()) == pytest.approx(
        sum(entry[2] for entry in tracer.stats.values()))


# -- install / uninstall ---------------------------------------------------------


def test_disabled_by_default_and_hooks_removed_on_uninstall():
    """The only hook is the interpreter's profile slot, held between
    install and uninstall; closed windows accumulate."""
    sim = Simulator()
    profiler = HostProfiler(clock=FakeWallClock(tick=1e-3))
    assert sys.getprofile() is None
    assert profiler.profile().scopes == ()  # never installed: empty
    profiler.install(sim)
    assert sys.getprofile() is not None
    sim.run(until=2.0)
    profiler.uninstall()
    assert sys.getprofile() is None
    profiler.uninstall()  # idempotent
    first = profiler.profile()
    assert first.sim_seconds == 2.0
    profiler.install(sim)
    sim.run(until=5.0)
    profiler.uninstall()
    second = profiler.profile()
    assert second.sim_seconds == 5.0
    assert second.wall_seconds > first.wall_seconds
    assert second.attributed_seconds > first.attributed_seconds


def test_double_install_raises():
    sim = Simulator()
    profiler = HostProfiler().install(sim)
    with pytest.raises(RuntimeError):
        profiler.install(Simulator())
    with pytest.raises(RuntimeError):
        HostProfiler().install(sim)  # one profile per thread
    profiler.uninstall()
    HostProfiler().install(sim).uninstall()


def test_a_live_profiler_can_be_snapshotted_without_stopping_it():
    sim = Simulator()
    profiler = HostProfiler(clock=FakeWallClock(tick=1e-3)).install(sim)
    sim.run(until=1.0)
    live = profiler.profile()
    assert live.sim_seconds == 1.0 and live.attributed_seconds > 0
    sim.run(until=2.0)
    profiler.uninstall()
    assert profiler.profile().attributed_seconds > live.attributed_seconds


# -- end-to-end attribution on a real session ------------------------------------


def test_session_profile_covers_the_subsystems_and_shares_sum_to_one(warm):
    session, profile = warm
    shares = profile.shares()
    assert set(shares) <= set(LAYERS) | {"other"}
    assert set(shares) >= {"sim", "net", "ipfs", "crypto", "core", "obs"}
    assert "kernel" not in shares and "directory" not in shares
    assert sum(shares.values()) == pytest.approx(1.0)
    assert list(shares.values()) == sorted(shares.values(), reverse=True)
    assert profile.sim_seconds == pytest.approx(session.sim.now)
    assert profile.sim_per_wall == pytest.approx(
        profile.sim_seconds / profile.wall_seconds)
    assert profile.fingerprint["digest"] \
        == session.fingerprint()["digest"]

    # One scope is one repro function: package, module, name.
    labels = {scope.label for scope in profile.scopes}
    assert {"sim.core.step", "net.bandwidth.max_min_rates",
            "ipfs.cid.compute_cid", "crypto.pedersen.commit",
            "core.verification.encode_and_commit",
            "core.directory._serve", "obs.bus.publish",
            "ml.training.compute_gradient"} <= labels
    # The attached registry's subscriber cost is obs cost.
    assert any(scope.subsystem == "obs" and scope.phase == "metrics"
               for scope in profile.scopes)
    # Dispatches are calls of Simulator.step, as the benchmark counts.
    (step,) = [scope for scope in profile.scopes
               if scope.label == "sim.core.step"]
    assert profile.dispatches == step.calls > 0


def test_self_seconds_partition_the_profiled_time_exactly(warm):
    """On a clock that ticks 1 us per read, cProfile's total is a count
    of its own reads; the fold must hand every one of them to exactly
    one scope, and the window (two more reads) bounds it."""
    _session, profile = warm
    ticks = [scope.self_seconds * 1e6 for scope in profile.scopes]
    assert profile.attributed_seconds * 1e6 \
        == pytest.approx(round(sum(ticks)), abs=1e-3)
    by_subsystem = profile.subsystem_seconds()
    assert sum(by_subsystem.values()) \
        == pytest.approx(profile.attributed_seconds)
    assert all(seconds >= 0 for seconds in by_subsystem.values())
    assert 0.95 * profile.wall_seconds \
        < profile.attributed_seconds <= profile.wall_seconds


def test_warm_profiles_on_a_fake_clock_are_equal_to_the_last_digit(warm):
    _session, profile = warm
    _again, replay = _profiled_run()
    assert replay.to_json() == profile.to_json()


def test_profiling_does_not_perturb_the_run():
    """Manifest, model bytes and the sim clock are identical with the
    profiler on or off: nothing in the run knows it is profiled."""
    def run(profiled):
        session = _small_session()
        registry = MetricsRegistry(session.sim.bus)
        profiler = (HostProfiler(clock=FakeWallClock(tick=1e-6))
                    .install(session.sim) if profiled else None)
        session.run(rounds=2)
        if profiler is not None:
            profiler.uninstall()
        registry.close()
        manifest = RunManifest.collect(registry, session.fingerprint())
        return (manifest.to_json(), session.model_of(0).get_params(),
                session.sim.now)

    bare_json, bare_params, bare_now = run(False)
    prof_json, prof_params, prof_now = run(True)
    assert prof_json == bare_json
    assert np.array_equal(prof_params, bare_params)
    assert prof_now == bare_now


# -- serialization / report -------------------------------------------------------


def test_profile_json_round_trip(tmp_path):
    scopes = (
        ScopeStat("sim", "core", "step", 10, 0.5, 0.9),
        ScopeStat("net", "bandwidth", "max_min_rates", 4, 0.25, 0.25),
    )
    profile = HostProfile(
        fingerprint={"digest": "abc"}, wall_seconds=1.0, sim_seconds=50.0,
        dispatches=10, scopes=scopes,
    )
    path = tmp_path / "profile.json"
    profile.write(path)
    loaded = HostProfile.load(path)
    assert loaded == profile
    data = json.loads(path.read_text())
    assert data["version"] == 2
    assert data["sim_per_wall"] == pytest.approx(50.0)
    assert data["shares"]["sim"] == pytest.approx(0.5 / 0.75)
    assert "samples" not in data


def test_other_profile_versions_are_refused_loudly():
    """A v1 artifact partitions the wall by hand-placed ``kernel`` /
    ``directory`` scopes: diffing it against the package partition
    would attribute the whole run to a renamed subsystem."""
    with pytest.raises(ValueError, match="version 1"):
        HostProfile.from_dict({"version": 1, "scopes": [], "shares": {}})
    with pytest.raises(ValueError, match="version 99"):
        HostProfile.from_dict({"version": 99})


def test_hotspots_are_ordered_and_format_reports_the_gauge():
    profile = HostProfile(
        wall_seconds=2.0, sim_seconds=100.0, dispatches=7,
        scopes=(
            ScopeStat("sim", "core", "step", 5, 1.0, 1.0),
            ScopeStat("crypto", "pedersen", "commit", 2, 0.5, 0.5),
            ScopeStat("net", "bandwidth", "max_min_rates", 1, 0.1, 0.1),
        ),
    )
    assert [scope.label for scope in profile.hotspots(2)] \
        == ["sim.core.step", "crypto.pedersen.commit"]
    report = profile.format()
    assert "50.0 sim-s/wall-s" in report
    assert "sim.core.step" in report
    assert "shares: sim 62.5% | crypto 31.2% | net 6.2%" in report
    many = HostProfile(
        wall_seconds=2.0, sim_seconds=100.0, dispatches=7,
        scopes=tuple(ScopeStat("sim", "core", f"f{index:02d}", 1,
                               1.0 / (index + 1), 1.0 / (index + 1))
                     for index in range(13)),
    )
    report = many.format()
    assert "sim.core.f11" in report
    assert "sim.core.f12" not in report  # beyond the top 12
