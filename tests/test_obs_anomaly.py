"""Tests for the online anomaly watchdog and its detectors."""

import json

import pytest

from repro.obs import (
    ANOMALY_KINDS,
    AnomalyWatchdog,
    CountersRegistry,
    EventBus,
    FlightRecorder,
)
from repro.obs.anomaly import (
    RetryStormDetector,
    ThroughputCollapseDetector,
    default_detectors,
)
from repro.obs.events import (
    AnomalyDetected,
    GradientRegistered,
    IterationFinished,
    IterationStarted,
    RetryExhausted,
    TrainingEvaluated,
    TransferAborted,
)
from repro.obs.perfetto import PerfettoExporter
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


# -- watchdog wiring -------------------------------------------------------------


def test_stock_detectors_cover_the_published_kind_catalog():
    kinds = [detector.kind for detector in default_detectors()]
    assert kinds == list(ANOMALY_KINDS)


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
    watchdog = AnomalyWatchdog(
        sim.bus, sim=sim,
        detectors=[ThroughputCollapseDetector(expected_per_iteration=2)])
    sim.bus.publish(IterationStarted(at=0.0, iteration=4,
                                     t_train=12.0, t_sync=30.0))
    sim.run(until=26.0)
    assert watchdog.ticks == 5
    # The ticks at 5 and 10 s precede the deadline; the one at 15 s
    # fires on the deadline path, once, under the open round.
    assert [(a.at, a.iteration, a.severity)
            for a in watchdog.anomalies] == [(15.0, 4, "critical")]
    watchdog.stop()
    assert next_event_time(sim) == float("inf")  # no stale wakeup left behind
    sim.run(until=100.0)
    assert watchdog.ticks == 5  # stop() cancelled the pending wakeup


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


def test_reported_anomalies_are_the_traced_ones(churn_bundle, flap_bundles,
                                               drop_bundle):
    """The report's ANOMALY lines, read off the watchdog's list, are
    the trace's ``AnomalyDetected`` records, in order."""
    from repro.cli import _anomaly_line
    from repro.obs.jsonl import read_trace

    reported = 0
    for run in (churn_bundle, flap_bundles[0], drop_bundle):
        lines = [line for line in
                 (run.path / "report.txt").read_text().splitlines()
                 if line.startswith("ANOMALY ")]
        with open(run.path / "trace.jsonl") as trace:
            traced = [_anomaly_line(anomaly) for anomaly
                      in read_trace(trace, (AnomalyDetected,))]
        assert lines == traced
        reported += len(lines)
    assert reported >= 3  # churn's storm and collapse, flap's collapse


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
