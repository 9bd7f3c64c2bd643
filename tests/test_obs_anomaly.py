"""Tests for the online anomaly watchdog and its detectors."""

import json

import pytest

from repro.obs import (
    ANOMALY_KINDS,
    AnomalyWatchdog,
    CountersRegistry,
    EventBus,
    FlightRecorder,
    PerfettoExporter,
    ProgressReporter,
    format_heartbeat,
)
from repro.obs.anomaly import (
    ConvergenceDetector,
    QueueRunawayDetector,
    RetryStormDetector,
    SimStallDetector,
    ThroughputCollapseDetector,
)
from repro.obs.profiling import FakeWallClock
from repro.obs.anomaly import default_detectors
from repro.obs.events import (
    AnomalyDetected,
    GradientRegistered,
    IterationFinished,
    IterationStarted,
    RetryExhausted,
    TrainingEvaluated,
    TransferAborted,
)
from repro.sim import Simulator
from tests.util import next_event_time, run_bundle


def abort(at):
    return TransferAborted(at=at, src="a", dst="b", size=1.0,
                           reason="link_down")


def exhausted(at):
    return RetryExhausted(at=at, actor="trainer-0",
                          operation="ipfs.get", attempts=3)


def registered(at, iteration=0, uploader="trainer-0"):
    return GradientRegistered(at=at, iteration=iteration,
                              uploader=uploader, partition_id=0)


# -- retry storm -----------------------------------------------------------------


def test_retry_storm_fires_once_then_rearms_after_quiet_window():
    detector = RetryStormDetector()
    assert not list(detector.observe(abort(1.0)))
    assert not list(detector.observe(abort(2.0)))
    fired = list(detector.observe(abort(3.0)))
    assert len(fired) == 1
    anomaly = fired[0]
    assert anomaly.kind == "retry_storm"
    assert anomaly.severity == "warning"  # aborts only, no exhaustion
    assert anomaly.evidence_dict()["events_in_window"] == 3
    # Disarmed: the sustained storm does not flood.
    assert not list(detector.observe(abort(4.0)))
    # A quiet tick far past the window re-arms ...
    detector.on_tick(500.0)
    # ... and a fresh burst fires again.
    assert not list(detector.observe(abort(501.0)))
    assert not list(detector.observe(abort(502.0)))
    assert len(list(detector.observe(abort(503.0)))) == 1


def test_retry_storm_exhaustion_escalates_to_critical():
    detector = RetryStormDetector()
    detector.observe(abort(1.0))
    detector.observe(abort(2.0))
    fired = list(detector.observe(exhausted(3.0)))
    assert fired[0].severity == "critical"
    assert fired[0].evidence_dict()["retry_exhausted"] == 1


def test_retry_storm_steady_rate_fires_at_most_once():
    # A steady abort rate is a storm only against the initial empty
    # baseline; once the trailing window is populated the 4x factor is
    # never met again and the disarmed detector stays quiet.
    detector = RetryStormDetector()
    fired = []
    for at in (10.0, 30.0, 50.0, 70.0, 90.0, 110.0, 130.0, 150.0):
        fired.extend(detector.observe(abort(at)))
        detector.on_tick(at)  # give it every chance to re-arm
    assert len(fired) == 1


# -- throughput collapse ---------------------------------------------------------


def test_throughput_collapse_gap_path_fires_once_per_round():
    detector = ThroughputCollapseDetector(expected_per_iteration=6)
    detector.observe(IterationStarted(at=0.0, iteration=0,
                                      t_train=600.0, t_sync=1200.0))
    for at in (1.0, 1.5, 2.0, 2.5):  # 3 gaps of 0.5 each
        detector.observe(registered(at))
    detector.observe(registered(3.0))  # 4th gap -> warmup met
    assert not list(detector.on_tick(30.0))  # 27s gap: under the floor
    fired = list(detector.on_tick(60.0))  # 57s gap: past the 30s floor
    assert len(fired) == 1
    anomaly = fired[0]
    assert anomaly.kind == "throughput_collapse"
    assert anomaly.severity == "warning"
    evidence = anomaly.evidence_dict()
    assert evidence["observed"] == 5 and evidence["expected"] == 6
    # Fire-once per round.
    assert not list(detector.on_tick(80.0))


def test_throughput_collapse_deadline_path_is_critical():
    detector = ThroughputCollapseDetector(expected_per_iteration=2)
    detector.observe(IterationStarted(at=0.0, iteration=3,
                                      t_train=100.0, t_sync=200.0))
    detector.observe(registered(1.0, iteration=3))
    assert not list(detector.on_tick(50.0))  # before the deadline
    fired = list(detector.on_tick(150.0))
    assert len(fired) == 1
    assert fired[0].severity == "critical"
    assert fired[0].iteration == -1  # the watchdog stamps the open round
    assert fired[0].evidence_dict()["observed"] == 1


def test_throughput_collapse_disarms_when_round_completes():
    detector = ThroughputCollapseDetector(expected_per_iteration=2)
    detector.observe(IterationStarted(at=0.0, iteration=0,
                                      t_train=100.0, t_sync=200.0))
    detector.observe(registered(1.0))
    detector.observe(registered(2.0, uploader="trainer-1"))
    assert not list(detector.on_tick(150.0))  # complete: no alarm
    detector.observe(IterationFinished(at=160.0, iteration=0))
    assert not list(detector.on_tick(500.0))  # closed: no alarm


def test_throughput_collapse_inert_without_expected_count():
    detector = ThroughputCollapseDetector()
    detector.observe(IterationStarted(at=0.0, iteration=0,
                                      t_train=10.0, t_sync=20.0))
    assert not list(detector.on_tick(1000.0))


# -- queue runaway ---------------------------------------------------------------


class _FakeDirectory:
    """Quacks like DirectoryService.inbox_depth() for the depth probe."""

    def __init__(self):
        class _Inbox:
            items = []

        class _Endpoint:
            inbox = _Inbox()

        self.endpoint = _Endpoint()

    def inbox_depth(self):
        return len(self.endpoint.inbox.items)


def test_queue_runaway_fires_and_rearms_on_drain():
    directory = _FakeDirectory()
    detector = QueueRunawayDetector(directory=directory)
    directory.endpoint.inbox.items = list(range(100))
    fired = list(detector.on_tick(10.0))
    assert len(fired) == 1
    assert fired[0].kind == "queue_runaway"
    assert fired[0].severity == "critical"
    assert fired[0].evidence_dict()["depth"] == 100
    # Still over the limit: disarmed, one anomaly per overload.
    assert not list(detector.on_tick(11.0))
    # Drains to half the limit -> re-arms -> fires on the next spike.
    directory.endpoint.inbox.items = list(range(32))
    assert not list(detector.on_tick(12.0))
    directory.endpoint.inbox.items = list(range(120))
    assert len(list(detector.on_tick(13.0))) == 1


def test_queue_runaway_inert_without_directory():
    assert not list(QueueRunawayDetector().on_tick(5.0))


# -- sim stall -------------------------------------------------------------------


def test_sim_stall_fires_past_sync_deadline_margin():
    detector = SimStallDetector()
    detector.observe(IterationStarted(at=0.0, iteration=0,
                                      t_train=600.0, t_sync=1200.0))
    assert not list(detector.on_tick(1400.0))  # inside the 300s margin
    fired = list(detector.on_tick(1600.0))
    assert len(fired) == 1
    assert fired[0].kind == "sim_stall"
    assert fired[0].severity == "critical"
    assert fired[0].evidence_dict()["overrun"] == pytest.approx(400.0)
    assert not list(detector.on_tick(1700.0))  # once per round


def test_sim_stall_quiet_when_round_closes():
    detector = SimStallDetector()
    detector.observe(IterationStarted(at=0.0, iteration=0,
                                      t_train=600.0, t_sync=1200.0))
    detector.observe(IterationFinished(at=1100.0, iteration=0))
    assert not list(detector.on_tick(5000.0))


# -- convergence -----------------------------------------------------------------


def _close_round(detector, iteration, loss, at):
    detector.observe(TrainingEvaluated(
        at=at - 1.0, iteration=iteration, trainer="trainer-0",
        loss=loss, samples=10))
    return list(detector.observe(
        IterationFinished(at=at, iteration=iteration)))


def test_convergence_stall_after_patience_rounds():
    detector = ConvergenceDetector()
    assert not _close_round(detector, 0, 1.0, 10.0)
    assert not _close_round(detector, 1, 0.5, 20.0)  # improvement
    for iteration in (2, 3, 4, 5):                   # 4 flat rounds
        assert not _close_round(detector, iteration, 0.5, 10.0 * iteration)
    # 1e-4 is under the 0.1 % floor: the 5th flat round.
    fired = _close_round(detector, 6, 0.4999, 70.0)
    assert len(fired) == 1
    assert fired[0].kind == "convergence_stall"
    assert fired[0].severity == "warning"
    assert detector.losses == [(0, 1.0), (1, 0.5), (2, 0.5), (3, 0.5),
                               (4, 0.5), (5, 0.5), (6, 0.4999)]


def test_convergence_divergence_is_critical():
    detector = ConvergenceDetector()
    assert not _close_round(detector, 0, 0.5, 10.0)
    fired = _close_round(detector, 1, 5.0, 20.0)  # 10x the best
    assert any(a.kind == "divergence" and a.severity == "critical"
               for a in fired)


def test_convergence_divergence_on_nonfinite_loss():
    detector = ConvergenceDetector()
    fired = _close_round(detector, 0, float("nan"), 10.0)
    assert [a.kind for a in fired] == ["divergence"]


def test_convergence_averages_across_trainers_per_round():
    detector = ConvergenceDetector()
    detector.observe(TrainingEvaluated(at=1.0, iteration=0,
                                       trainer="a", loss=1.0))
    detector.observe(TrainingEvaluated(at=2.0, iteration=0,
                                       trainer="b", loss=3.0))
    detector.observe(IterationFinished(at=5.0, iteration=0))
    assert detector.losses == [(0, 2.0)]


def test_convergence_quiet_round_without_evaluations():
    detector = ConvergenceDetector()
    assert not list(detector.observe(
        IterationFinished(at=5.0, iteration=0)))
    assert detector.losses == []


# -- watchdog wiring -------------------------------------------------------------


def test_stock_detectors_cover_the_published_kind_catalog():
    kinds = {detector.kind for detector in default_detectors()}
    kinds.add("divergence")  # ConvergenceDetector's second kind
    assert kinds == set(ANOMALY_KINDS)


def test_watchdog_publishes_observed_anomalies_on_the_bus():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append, AnomalyDetected)
    watchdog = AnomalyWatchdog(bus,
                               detectors=[RetryStormDetector()])
    for at in (1.0, 2.0, 3.0):
        bus.publish(abort(at))
    assert len(watchdog.anomalies) == 1
    assert seen == watchdog.anomalies
    assert watchdog.kinds() == ["retry_storm"]
    assert watchdog.summary() == {"retry_storm": 1}
    watchdog.finalize()
    bus.publish(abort(4.0))
    bus.publish(abort(5.0))
    assert len(watchdog.anomalies) == 1  # unsubscribed after finalize


def test_watchdog_tick_loop_follows_sim_clock_and_stops():
    sim = Simulator()
    directory = _FakeDirectory()
    directory.endpoint.inbox.items = list(range(100))
    watchdog = AnomalyWatchdog(
        sim.bus, sim=sim,
        detectors=[QueueRunawayDetector(directory=directory)])
    sim.run(until=26.0)
    assert watchdog.ticks == 5
    assert watchdog.summary() == {"queue_runaway": 1}
    watchdog.stop()
    assert next_event_time(sim) == float("inf")  # no stale wakeup left behind
    sim.run(until=100.0)
    assert watchdog.ticks == 5  # stop() cancelled the pending wakeup


def test_watchdog_wall_stall_recorded_locally_never_published():
    sim = Simulator()
    published = []
    sim.bus.subscribe(published.append, AnomalyDetected)
    clock = FakeWallClock(tick=200.0)
    watchdog = AnomalyWatchdog(sim.bus, sim=sim, wall_clock=clock)
    assert watchdog.check_wall() is None  # baseline read
    assert watchdog.check_wall() is None  # 200s elapsed: under limit
    entry = watchdog.check_wall()         # 400s with no sim progress
    assert entry is not None
    assert entry["kind"] == "wall_stall"
    assert entry["wall_elapsed"] == pytest.approx(400.0)
    assert watchdog.wall_stalls == [entry]
    assert published == []  # wall-time evidence never hits the bus


def test_progress_heartbeat_surfaces_watchdog_state():
    bus = EventBus()
    watchdog = AnomalyWatchdog(bus,
                               detectors=[RetryStormDetector()],
                               wall_clock=FakeWallClock(tick=0.0))
    reporter = ProgressReporter(bus, watchdog=watchdog, stream=None,
                                clock=FakeWallClock())
    for at in (1.0, 2.0, 3.0):
        bus.publish(abort(at))
    record = reporter.snapshot()
    assert record["anomalies"] == 1
    assert record["anomaly_kinds"] == ["retry_storm"]
    assert "wall_stalls" not in record
    assert "anomalies=1" in format_heartbeat(record)


def test_watchdog_stamps_the_open_iteration_on_every_anomaly():
    """One place tracks the open round: a detector that knows nothing
    about iterations (the retry storm) is filed under the round it
    fired in, and under -1 only between rounds."""
    bus = EventBus()
    published = []
    bus.subscribe(published.append, AnomalyDetected)
    watchdog = AnomalyWatchdog(bus, detectors=[RetryStormDetector()])
    bus.publish(IterationStarted(at=0.0, iteration=3,
                                 t_train=100.0, t_sync=200.0))
    for at in (1.0, 2.0, 3.0):
        bus.publish(abort(at))
    bus.publish(IterationFinished(at=50.0, iteration=3))
    assert not list(watchdog.detectors[0].on_tick(200.0))  # re-arms
    for at in (201.0, 202.0, 203.0):
        bus.publish(abort(at))
    assert [a.iteration for a in published] == [3, -1]
    assert watchdog.anomalies == published


# -- downstream consumers --------------------------------------------------------


def _storm_anomaly(at=3.0):
    detector = RetryStormDetector()
    detector.observe(abort(1.0))
    detector.observe(abort(2.0))
    return list(detector.observe(abort(at)))[0]


def test_counters_fold_anomaly_and_evaluation_events():
    bus = EventBus()
    counters = CountersRegistry(bus)
    bus.publish(TrainingEvaluated(at=1.0, iteration=0,
                                  trainer="t", loss=0.25, accuracy=0.9))
    bus.publish(_storm_anomaly())
    snapshot = counters.snapshot()
    assert snapshot["ml.evaluations"] == 1
    assert snapshot["obs.anomaly.detected"] == 1
    assert snapshot["obs.anomaly.detected.retry_storm"] == 1
    gauges = counters.gauges()
    assert gauges["ml.loss.last"] == 0.25
    assert gauges["ml.accuracy.last"] == 0.9
    assert gauges["obs.anomaly.last_at"] == 3.0


def test_flight_recorder_seals_on_anomaly():
    bus = EventBus()
    recorder = FlightRecorder(bus)
    bus.publish(abort(1.0))
    bus.publish(_storm_anomaly())
    recorder.close()
    assert len(recorder.incidents) == 1
    bundle = recorder.incidents[0]
    assert bundle.kind == "anomaly_detected"
    assert any(isinstance(e, AnomalyDetected) for e in bundle.events)
    trace = bundle.perfetto()
    names = {entry.get("name") for entry in trace["traceEvents"]}
    assert "anomaly:retry_storm" in names


def test_perfetto_add_anomalies_emits_instants_and_counter():
    exporter = PerfettoExporter()
    exporter.add_anomalies([_storm_anomaly()])
    events = exporter.to_dict()["traceEvents"]
    instants = [e for e in events if e.get("ph") == "i"]
    counters = [e for e in events if e.get("ph") == "C"
                and e.get("name") == "anomaly.count"]
    assert len(instants) == 1
    assert instants[0]["name"] == "anomaly:retry_storm"
    assert instants[0]["args"]["severity"] == "warning"
    assert counters[-1]["args"]["value"] == 1


def test_anomaly_event_round_trips_evidence():
    anomaly = _storm_anomaly()
    assert anomaly.evidence == tuple(sorted(anomaly.evidence))
    assert json.loads(json.dumps(anomaly.evidence_dict()))


# -- end to end ------------------------------------------------------------------


def test_churn_chaos_watchdog_classifies_storm_and_collapse(churn_bundle):
    run = churn_bundle
    assert run.code == 0
    assert "ANOMALY [retry_storm/" in run.out
    assert "ANOMALY [throughput_collapse/" in run.out
    assert "[anomaly_detected]" in run.out
    assert "run clean" in run.out
    # Anomalies auto-sealed incident bundles.
    assert len(list((run.path / "incidents").glob("*.json"))) == 2


def test_mid_round_anomaly_is_filed_under_its_iteration(churn_bundle):
    """The churn plan's retry storm fires at t = 22.6 s, inside round 0
    (it used to be published, sealed and named as iteration -1)."""
    run = churn_bundle
    storm = next(
        record for record in map(
            json.loads, (run.path / "trace.jsonl").read_text().splitlines())
        if record["event"] == "AnomalyDetected"
        and record["kind"] == "retry_storm")
    assert storm["at"] == pytest.approx(22.6, abs=0.1)
    assert storm["iteration"] == 0
    sealed = json.loads(
        (run.path / "incidents"
         / "incident-00-i0-anomaly_detected.json").read_text())
    assert sealed["iteration"] == 0
    assert sealed["trigger"]["kind"] == "retry_storm"
    assert sealed["trigger"]["iteration"] == 0
    assert "iter=0 RetryStormDetector" in run.out


def test_clean_chaos_run_reports_zero_anomalies(tmp_path):
    run = run_bundle(["--rounds", "1", "--trainers", "4",
                      "--params", "2000"], tmp_path)
    assert run.code == 0
    assert "watchdog: no anomalies" in run.out
    assert "run clean" in run.out


def test_watchdog_attached_replay_is_byte_identical(flap_bundles):
    from repro.cli import _build_run_session, build_parser
    from repro.faults import FaultPlan
    from repro.obs import RunManifest
    from tests.conftest import FLAP

    first, second = (run.path / "manifest.json" for run in flap_bundles)
    assert first.read_bytes() == second.read_bytes()
    watched = RunManifest.load(first)
    # Watching is config-invisible: same fingerprint as the bare session.
    plan = str(first.parent.parent / "flap.json")
    args = build_parser().parse_args(
        ["run", "--artifacts", "-", "--plan", plan] + FLAP)
    bare, _ = _build_run_session(args, FaultPlan.load(plan))
    assert watched.fingerprint["digest"] == bare.fingerprint()["digest"]
    # The watched manifest carries the anomaly/evaluation counters.
    assert watched.counters["obs.anomaly.detected"] == 1
    assert watched.counters["ml.evaluations"] > 0
