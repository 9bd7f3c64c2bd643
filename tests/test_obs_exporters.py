"""JSONL trace export, the counters registry, and the trace and
timeline files of a ``cli run`` bundle."""

import io
import json

import pytest

from repro.obs import (
    CountersRegistry,
    CriticalPathAnalyzer,
    EventBus,
    JsonlTraceExporter,
    fold_trace,
)
from repro.obs.jsonl import FLUSH_BYTES, FLUSH_LINES
from repro.obs.events import (
    AnomalyDetected,
    BlockFetched,
    BlockStored,
    DhtLookup,
    DirectoryRequest,
    IterationFinished,
    IterationStarted,
    TrainerCompleted,
    TransferCompleted,
    VerificationFailed,
)
from tests.util import run_bundle


# -- JsonlTraceExporter ----------------------------------------------------------


def test_exporter_writes_one_parseable_line_per_event():
    bus = EventBus()
    stream = io.StringIO()
    exporter = JsonlTraceExporter(bus, stream)
    bus.publish(IterationStarted(at=0.0, iteration=0))
    bus.publish(TransferCompleted(at=1.5, src="a", dst="b", size=100.0,
                                  started_at=0.5))
    bus.publish(IterationFinished(at=2.0, iteration=0))
    exporter.close()
    lines = stream.getvalue().splitlines()
    assert exporter.events_written == 3 == len(lines)
    records = [json.loads(line) for line in lines]
    assert [r["event"] for r in records] == [
        "IterationStarted", "TransferCompleted", "IterationFinished"
    ]
    assert records[1] == {
        "event": "TransferCompleted", "at": 1.5, "src": "a", "dst": "b",
        "size": 100.0, "started_at": 0.5,
    }


def test_exporter_stringifies_non_json_values():
    bus = EventBus()
    stream = io.StringIO()
    with JsonlTraceExporter(bus, stream):
        bus.publish(BlockStored(at=0.0, node="ipfs-0", cid=object(),
                                size=10))
    record = json.loads(stream.getvalue())
    assert isinstance(record["cid"], str)


def test_exporter_close_detaches_and_keeps_callers_stream_open():
    bus = EventBus()
    stream = io.StringIO()
    exporter = JsonlTraceExporter(bus, stream)
    bus.publish(IterationStarted(at=0.0, iteration=0))
    exporter.close()
    bus.publish(IterationStarted(at=1.0, iteration=1))
    assert exporter.events_written == 1
    assert not stream.closed  # caller-owned stream stays usable
    assert not bus.active


def test_exporter_owns_path_destination(tmp_path):
    bus = EventBus()
    path = tmp_path / "run.jsonl"
    with JsonlTraceExporter(bus, path) as exporter:
        bus.publish(IterationStarted(at=0.0, iteration=0))
        assert exporter.events_written == 1
    assert exporter._stream.closed
    [record] = [json.loads(line) for line in path.read_text().splitlines()]
    assert record == {"event": "IterationStarted", "at": 0.0, "iteration": 0,
                      "t_train": None, "t_sync": None}


def test_exporter_truncates_path_by_default(tmp_path):
    path = tmp_path / "run.jsonl"
    for iteration in range(2):
        bus = EventBus()
        with JsonlTraceExporter(bus, path):
            bus.publish(IterationStarted(at=0.0, iteration=iteration))
    [record] = [json.loads(line) for line in path.read_text().splitlines()]
    assert record["iteration"] == 1  # second run replaced the first


def test_exporter_buffers_until_the_line_bound(tmp_path):
    bus = EventBus()
    stream = io.StringIO()
    exporter = JsonlTraceExporter(bus, stream)
    for iteration in range(FLUSH_LINES - 1):
        bus.publish(IterationStarted(at=0.0, iteration=iteration))
    assert stream.getvalue() == ""  # nothing reaches the stream yet
    bus.publish(IterationStarted(at=1.0, iteration=FLUSH_LINES))
    assert len(stream.getvalue().splitlines()) == FLUSH_LINES
    exporter.close()  # empty buffer: close writes nothing more
    assert len(stream.getvalue().splitlines()) == FLUSH_LINES


def test_exporter_flushes_on_the_byte_bound():
    bus = EventBus()
    stream = io.StringIO()
    exporter = JsonlTraceExporter(bus, stream)
    big = AnomalyDetected(at=0.0, iteration=0, kind="retry_storm",
                          severity="warning",
                          detector="x" * (FLUSH_BYTES // 2))
    bus.publish(big)
    assert stream.getvalue() == ""
    bus.publish(big)
    # Two lines of over half the byte bound each: drained.
    assert len(stream.getvalue().splitlines()) == 2
    exporter.close()


def test_exporter_final_flush_is_crash_safe(tmp_path):
    """A run that dies mid-buffer still leaves every event on disk:
    the context manager's error path drains the buffer."""
    bus = EventBus()
    path = tmp_path / "trace.jsonl"
    with pytest.raises(RuntimeError):
        with JsonlTraceExporter(bus, path):
            for index in range(5):
                bus.publish(IterationStarted(at=float(index),
                                             iteration=index))
            assert path.read_text() == ""  # below both bounds
            raise RuntimeError("simulated crash")
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert [json.loads(line)["iteration"] for line in lines] == \
        [0, 1, 2, 3, 4]


# -- CountersRegistry ------------------------------------------------------------


def test_counters_fold_the_event_stream():
    bus = EventBus()
    counters = CountersRegistry(bus)
    bus.publish(TransferCompleted(at=1.0, src="a", dst="b", size=100.0,
                                  started_at=0.0))
    bus.publish(TransferCompleted(at=2.0, src="b", dst="a", size=50.0,
                                  started_at=1.0))
    bus.publish(BlockFetched(at=2.0, client="t", node="ipfs-0", cid="x",
                             size=40.0))
    bus.publish(DhtLookup(at=2.5, querier="t", cid="x", providers=3, hops=2))
    bus.publish(DirectoryRequest(at=3.0, kind="dir.lookup"))
    bus.publish(DirectoryRequest(at=3.0, kind="dir.register"))
    bus.publish(VerificationFailed(at=4.0, iteration=0, label="bad",
                                   scope="update"))
    bus.publish(TrainerCompleted(at=5.0, iteration=0, trainer="t"))
    assert counters.get("net.transfers") == 2
    assert counters.get("net.bytes") == 150.0
    assert counters.get("ipfs.fetches") == 1
    assert counters.get("dht.hops") == 2
    assert counters.get("dht.providers_found") == 3
    assert counters.get("directory.requests") == 2
    assert counters.get("directory.requests.dir.lookup") == 1
    assert counters.get("protocol.verification_failures.update") == 1
    assert counters.get("protocol.trainers_completed") == 1
    assert counters.get("never.touched") == 0.0


def test_counters_manual_api_and_snapshot():
    bus = EventBus()
    counters = CountersRegistry(bus)
    counters.increment("custom.count")
    counters.increment("custom.count", by=2.0)
    counters.set_gauge("custom.level", 7.0)
    assert counters.get("custom.count") == 3.0
    assert counters.get("custom.level") == 7.0
    snapshot = counters.snapshot()
    assert list(snapshot) == sorted(snapshot)
    assert snapshot["custom.count"] == 3.0
    assert "custom.level" in counters.gauges()
    counters.close()
    bus.publish(TrainerCompleted(at=0.0, iteration=0, trainer="t"))
    assert counters.get("protocol.trainers_completed") == 0.0


def test_counters_close_detaches_every_subscription():
    """Regression pin for the counters lifecycle: ``close()`` must
    detach the registry's one-and-only subscription, after which the
    bus reports inactive and no event mutates the registry."""
    bus = EventBus()
    counters = CountersRegistry(bus)
    assert bus.active
    bus.publish(TrainerCompleted(at=0.0, iteration=0, trainer="t"))
    counters.close()
    assert not bus.active
    before = counters.snapshot()
    bus.publish(TrainerCompleted(at=1.0, iteration=0, trainer="t"))
    bus.publish(TransferCompleted(at=1.0, src="a", dst="b", size=9.0,
                                  started_at=0.0))
    assert counters.snapshot() == before
    counters.close()  # idempotent
    assert counters.get("protocol.trainers_completed") == 1


def test_two_counters_registries_never_double_count():
    """Two registries on one bus each see every event exactly once,
    and closing one leaves the other recording."""
    bus = EventBus()
    first = CountersRegistry(bus)
    second = CountersRegistry(bus)
    bus.publish(TransferCompleted(at=1.0, src="a", dst="b", size=100.0,
                                  started_at=0.0))
    assert first.get("net.transfers") == 1
    assert second.get("net.transfers") == 1
    first.close()
    assert bus.active  # second is still attached
    bus.publish(TransferCompleted(at=2.0, src="a", dst="b", size=100.0,
                                  started_at=1.0))
    assert first.get("net.transfers") == 1
    assert second.get("net.transfers") == 2
    second.close()
    assert not bus.active


# -- the run bundle's trace and timeline ------------------------------------------

SMALL_RUN = ["--trainers", "2", "--rounds", "1", "--partitions", "1",
             "--ipfs-nodes", "2", "--params", "2000"]


def test_cli_trace_writes_parseable_jsonl(tmp_path):
    run = run_bundle(SMALL_RUN, tmp_path)
    assert run.code == 0
    records = [json.loads(line) for line in
               (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert records, "trace must contain events"
    assert all("event" in r and "at" in r for r in records)
    kinds = {r["event"] for r in records}
    assert {"IterationStarted", "IterationFinished",
            "TransferCompleted"} <= kinds
    # The counters the old stderr summary printed are the manifest's.
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["counters"]["net.transfers"] == sum(
        r["event"] == "TransferCompleted" for r in records)


def test_cli_trace_streams_to_stdout(tmp_path):
    """Nothing of the trace streams to stdout: the report counts the
    events and names the file that holds them."""
    run = run_bundle(SMALL_RUN, tmp_path)
    assert run.code == 0
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert f"{len(lines)} events -> trace.jsonl" in run.out
    assert '"event"' not in run.out


def test_cli_trace_failing_run_still_leaves_valid_jsonl(
        tmp_path, monkeypatch):
    # A run that dies mid-round must exit non-zero yet leave the events
    # written so far as a valid, parseable timeline (the bundle is
    # written in a ``finally``, which closes/flushes the exporter).
    from repro.core import FLSession
    from repro.obs.events import IterationStarted as Started

    def exploding_run(self, rounds):
        bus = self.sim.bus
        bus.publish(Started(at=0.0, iteration=0))
        bus.publish(Started(at=1.0, iteration=1))
        raise RuntimeError("mid-round crash")

    monkeypatch.setattr(FLSession, "run", exploding_run)
    run = run_bundle(SMALL_RUN, tmp_path)
    assert run.code == 1
    records = [json.loads(line) for line in
               (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert [r["iteration"] for r in records] == [0, 1]
    assert "run failed" in run.err


def test_cli_timeline_failing_run_still_writes_valid_json(
        tmp_path, monkeypatch):
    from repro.core import FLSession

    def exploding_run(self, rounds):
        raise RuntimeError("mid-round crash")

    monkeypatch.setattr(FLSession, "run", exploding_run)
    run = run_bundle(SMALL_RUN, tmp_path)
    assert run.code == 1
    trace = json.loads((tmp_path / "timeline.perfetto.json").read_text())
    assert "traceEvents" in trace  # still well-formed JSON
    assert "run failed" in run.err


@pytest.mark.parametrize("fixture", ["flap_bundles", "drop_bundle"])
def test_timeline_and_critical_path_are_a_fold_of_the_trace(
        fixture, request, tmp_path):
    """The bundle's simulated-time files are a function of its trace:
    ``trace.jsonl`` alone rebuilds ``timeline.perfetto.json`` byte for
    byte, and the report's critical-path and straggler lines."""
    run = request.getfixturevalue(fixture)
    bundle = (run[0] if fixture == "flap_bundles" else run).path
    timeline, trees = fold_trace(bundle / "trace.jsonl")
    timeline.write(tmp_path / "timeline.perfetto.json")
    assert (tmp_path / "timeline.perfetto.json").read_bytes() \
        == (bundle / "timeline.perfetto.json").read_bytes()

    analyzer = CriticalPathAnalyzer(trees)
    folded = "".join(
        f"{analyzer.analyze(i).format()}\n"
        f"{analyzer.straggler_report(i).format()}\n\n"
        for i in analyzer.iterations())
    report = (bundle / "report.txt").read_text()
    paths = report.split("\n\n", 1)[1].split("host-cost profile")[0]
    assert folded and paths == folded
