"""Tests for the host-cost profiler (repro.obs.profiling).

Pins the module's contracts: a sample charges the wall time it closes
to the innermost ``repro/<package>/`` frame of the stack (exclusive
self times that sum to the sampled time), install / uninstall own the
real-time timer and hand it back, runs are byte-identical with the
sampler on or off, and on a fake clock the charge of a sequence of
stacks is deterministic.  The sampler is driven through
``HostProfiler._sample`` with stacks captured inside real ``repro``
functions; no assertion depends on when the host's timer fires.
"""

import json
import signal
import sys

import numpy as np
import pytest

from repro.analysis.results import format_table
from repro.core import FLSession, ProtocolConfig
from repro.ipfs.cid import compute_cid
from repro.ml import Dataset, SyntheticModel
from repro.net import NetworkProfile
from repro.obs import (
    EventBus,
    HostProfile,
    HostProfiler,
    MetricsRegistry,
    RunManifest,
    SYSTEM_WALL_CLOCK,
)
from repro.obs.events import IterationStarted
from repro.obs.profiling import (
    FakeWallClock,
    LAYERS,
    SAMPLE_INTERVAL,
    ScopeStat,
    WallClock,
    _scope_of,
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


#: A fake clock tick that float sums add up exactly.
TICK = 2.0 ** -20


def _publisher_sampled_run(rounds=1):
    """One observed session in which every published event is one
    sample of its publisher's stack, on a fake clock ticking
    :data:`TICK` per read -> ``(session, profile, events)``.

    The subscriber's frame and ``EventBus.publish``'s are skipped, so
    each sample lands in whichever layer published the event.
    """
    session = _small_session()
    registry = MetricsRegistry(session.sim.bus)
    profiler = HostProfiler(clock=FakeWallClock(tick=TICK))
    before = session.sim.bus.events_published
    subscription = session.sim.bus.subscribe(
        lambda _event: profiler._sample(sys._getframe(2)))
    session.run(rounds=rounds)
    subscription.cancel()
    registry.close()
    events = session.sim.bus.events_published - before
    return session, profiler.profile(fingerprint=session.fingerprint()), \
        events


@pytest.fixture(scope="module")
def warm():
    """``(session, profile, events)`` of a second run: the first one in
    a process also pays the lazy imports."""
    _publisher_sampled_run()
    return _publisher_sampled_run()


@pytest.fixture
def alarm_handler():
    """A known ``SIGALRM`` handler for the test, the default after it;
    ``ITIMER_REAL`` is disarmed either way."""
    def handler(_signum, _frame):
        pass

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        yield handler
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- wall clocks -----------------------------------------------------------------


def test_system_wall_clock_is_monotonic():
    first = SYSTEM_WALL_CLOCK.seconds()
    second = SYSTEM_WALL_CLOCK.seconds()
    assert second >= first
    assert isinstance(first, float)
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


# -- one sample ------------------------------------------------------------------


def test_sample_charges_off_repo_time_to_its_repro_caller():
    """A subscriber is off-repo code two frames deep inside
    ``EventBus.publish``: its sample is ``obs.bus.publish``'s, with the
    wall time since the previous sample.  Code objects map to their
    package, module and function; a ``repro`` package outside the layer
    set is ``other``, a module at the package root is off-repo."""
    clock = FakeWallClock()
    profiler = HostProfiler(clock=clock)
    bus = EventBus()

    def nested():
        clock.advance(0.75)
        profiler._sample(sys._getframe())

    bus.subscribe(lambda _event: nested())
    bus.publish(IterationStarted(at=0.0, iteration=0))
    bus.publish(IterationStarted(at=1.0, iteration=1))
    (scope,) = profiler.profile().scopes
    assert scope == ScopeStat("obs", "bus", "publish", 2, 1.5)

    assert _scope_of(compute_cid.__code__) == ("ipfs", "cid", "compute_cid")
    assert _scope_of(format_table.__code__) \
        == ("other", "results", "format_table")
    from repro import cli
    assert _scope_of(cli.main.__code__) == (None, "cli", "main")
    assert _scope_of(nested.__code__)[0] is None


def test_a_stack_with_no_repro_frame_is_charged_to_other():
    """Nothing under ``repro/<package>/`` is on a test's own stack: the
    sample goes to ``other``, named after the innermost frame."""
    profiler = HostProfiler(clock=FakeWallClock(tick=0.25))
    profiler._sample(sys._getframe())
    profiler._sample(sys._getframe())
    profile = profiler.profile()
    assert profile.scopes == (ScopeStat(
        "other", "test_obs_profiling",
        "test_a_stack_with_no_repro_frame_is_charged_to_other", 2, 0.25),)
    assert profile.shares() == {"other": 1.0}


# -- install / uninstall ---------------------------------------------------------


def test_disabled_by_default_and_hooks_removed_on_uninstall(alarm_handler):
    """The only hooks are ``ITIMER_REAL`` and the ``SIGALRM`` handler,
    held between install and uninstall and then handed back; closed
    windows accumulate."""
    sim = Simulator()
    profiler = HostProfiler(clock=FakeWallClock(tick=1e-3))
    assert profiler.profile().scopes == ()  # never installed: empty
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    profiler.install(sim)
    assert signal.getsignal(signal.SIGALRM) is not alarm_handler
    assert signal.getitimer(signal.ITIMER_REAL)[1] \
        == pytest.approx(SAMPLE_INTERVAL)
    sim.run(until=2.0)
    profiler.uninstall()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is alarm_handler
    profiler.uninstall()  # idempotent
    first = profiler.profile()
    assert first.sim_seconds == 2.0
    profiler.install(sim)
    sim.run(until=5.0)
    profiler.uninstall()
    assert signal.getsignal(signal.SIGALRM) is alarm_handler
    second = profiler.profile()
    assert second.sim_seconds == 5.0
    assert second.wall_seconds > first.wall_seconds


def test_double_install_raises(alarm_handler):
    """One sampler owns the timer: a second install, or one on a timer
    somebody else armed, is refused and changes nothing."""
    sim = Simulator()
    profiler = HostProfiler().install(sim)
    with pytest.raises(RuntimeError):
        profiler.install(Simulator())
    with pytest.raises(RuntimeError):
        HostProfiler().install(sim)  # the timer is taken
    profiler.uninstall()
    HostProfiler().install(sim).uninstall()
    signal.setitimer(signal.ITIMER_REAL, 100.0)
    with pytest.raises(RuntimeError, match="already armed"):
        HostProfiler().install(sim)
    assert signal.getsignal(signal.SIGALRM) is alarm_handler
    assert signal.getitimer(signal.ITIMER_REAL)[0] > 99.0


def test_a_live_profiler_can_be_snapshotted_without_stopping_it(
        alarm_handler):
    sim = Simulator()
    profiler = HostProfiler(clock=FakeWallClock(tick=1e-3)).install(sim)
    sim.run(until=1.0)
    profiler._sample(sys._getframe())
    live = profiler.profile()
    assert live.sim_seconds == 1.0 and live.attributed_seconds > 0
    sim.run(until=2.0)
    profiler._sample(sys._getframe())
    profiler.uninstall()
    assert profiler.profile().attributed_seconds > live.attributed_seconds


# -- attribution on a real session -----------------------------------------------


def test_session_profile_covers_the_subsystems_and_shares_sum_to_one(warm):
    """Each event charged to its publisher: the real stacks of a
    session land in the layers that publish, one scope per function."""
    session, profile, _events = warm
    shares = profile.shares()
    assert set(shares) <= set(LAYERS) | {"other"}
    assert set(shares) >= {"net", "ipfs", "core"}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert list(shares.values()) == sorted(shares.values(), reverse=True)
    assert profile.fingerprint["digest"] \
        == session.fingerprint()["digest"]
    labels = {scope.label for scope in profile.scopes}
    assert {"net.network.transfer", "ipfs.node.store_object",
            "core.directory._serve", "core.session.run_iteration"} \
        <= labels
    assert not any(scope.subsystem == "obs" for scope in profile.scopes)


def test_self_seconds_partition_the_profiled_time_exactly(warm):
    """On a clock that ticks :data:`TICK` per read, every sample but
    the first closes one tick: the scopes hold every sample once, and
    their self times add up to the sampled time to the last bit."""
    _session, profile, events = warm
    assert profile.samples == events > 0
    assert profile.attributed_seconds == (events - 1) * TICK
    by_subsystem = profile.subsystem_seconds()
    assert sum(by_subsystem.values()) == profile.attributed_seconds
    assert all(seconds >= 0 for seconds in by_subsystem.values())


def test_warm_profiles_on_a_fake_clock_are_equal_to_the_last_digit(warm):
    _session, profile, _events = warm
    _again, replay, _ = _publisher_sampled_run()
    assert replay.to_json() == profile.to_json()


def test_profiling_does_not_perturb_the_run():
    """Manifest, model bytes and the sim clock are identical with the
    sampler firing or not: nothing in the run knows it is profiled."""
    def run(profiled):
        session = _small_session()
        registry = MetricsRegistry(session.sim.bus)
        profiler = (HostProfiler().install(session.sim)
                    if profiled else None)
        session.run(rounds=2)
        if profiler is not None:
            profiler.uninstall()
        registry.close()
        manifest = RunManifest.collect(registry, session.fingerprint())
        samples = profiler.profile().samples if profiled else None
        return (manifest.to_json(), session.model_of(0).get_params(),
                session.sim.now, samples)

    bare_json, bare_params, bare_now, _ = run(False)
    prof_json, prof_params, prof_now, samples = run(True)
    assert samples > 0  # the sampler did fire
    assert prof_json == bare_json
    assert np.array_equal(prof_params, bare_params)
    assert prof_now == bare_now


# -- serialization / report -------------------------------------------------------


def test_profile_json_round_trip(tmp_path):
    scopes = (
        ScopeStat("sim", "core", "step", 10, 0.5),
        ScopeStat("net", "bandwidth", "max_min_rates", 4, 0.25),
    )
    profile = HostProfile(
        fingerprint={"digest": "abc"}, wall_seconds=1.0, sim_seconds=50.0,
        scopes=scopes,
    )
    path = tmp_path / "profile.json"
    profile.write(path)
    loaded = HostProfile.load(path)
    assert loaded == profile
    data = json.loads(path.read_text())
    assert data["version"] == 3
    assert data["samples"] == 14
    assert data["sim_per_wall"] == pytest.approx(50.0)
    assert data["shares"]["sim"] == pytest.approx(0.5 / 0.75)
    assert "dispatches" not in data


def test_other_profile_versions_are_refused_loudly():
    """A v1 artifact partitions the wall by hand-placed ``kernel`` /
    ``directory`` scopes, a v2 one carries cProfile's calls and
    inclusive times: diffing either against sampled stacks would
    compare two instruments."""
    with pytest.raises(ValueError, match="version 1"):
        HostProfile.from_dict({"version": 1, "scopes": [], "shares": {}})
    with pytest.raises(ValueError, match="version 2"):
        HostProfile.from_dict({"version": 2, "scopes": [], "dispatches": 7})
    with pytest.raises(ValueError, match="version 99"):
        HostProfile.from_dict({"version": 99})


@pytest.mark.parametrize("data", [{}, {"a": 1}])
def test_a_profile_without_a_version_is_refused(data):
    """An object that names no version is not an empty profile:
    ``cli explain`` would diff a run against nothing."""
    with pytest.raises(ValueError, match="version None"):
        HostProfile.from_dict(data)


def test_hotspots_are_ordered_and_format_reports_the_gauge():
    profile = HostProfile(
        wall_seconds=2.0, sim_seconds=100.0,
        scopes=(
            ScopeStat("sim", "core", "step", 5, 1.0),
            ScopeStat("crypto", "pedersen", "commit", 2, 0.5),
            ScopeStat("net", "bandwidth", "max_min_rates", 1, 0.1),
        ),
    )
    assert [scope.label for scope in profile.hotspots(2)] \
        == ["sim.core.step", "crypto.pedersen.commit"]
    report = profile.format()
    assert "50.0 sim-s/wall-s" in report
    assert "8 samples" in report
    assert "sim.core.step" in report
    assert "shares: sim 62.5% | crypto 31.2% | net 6.2%" in report
    many = HostProfile(
        wall_seconds=2.0, sim_seconds=100.0,
        scopes=tuple(ScopeStat("sim", "core", f"f{index:02d}", 1,
                               1.0 / (index + 1))
                     for index in range(13)),
    )
    report = many.format()
    assert "sim.core.f11" in report
    assert "sim.core.f12" not in report  # beyond the top 12
