"""Perfetto / Chrome trace-event export (repro.obs.perfetto)."""

import io
import json

from repro.obs import EventBus, PerfettoExporter, SpanCollector, \
    build_span_tree
from repro.obs.events import (
    BlockFetched,
    GradientRegistered,
    GradientsAggregated,
    IterationFinished,
    IterationStarted,
    UpdateRegistered,
    UploadCompleted,
)


def round_events(iteration=0, base=0.0):
    return [
        IterationStarted(at=base, iteration=iteration, t_train=600.0,
                         t_sync=1200.0),
        GradientRegistered(at=base + 1.0, iteration=iteration,
                           uploader="trainer-0", partition_id=0),
        UploadCompleted(at=base + 1.2, iteration=iteration,
                        trainer="trainer-0", delay=1.0, started_at=base),
        BlockFetched(at=base + 2.5, client="aggregator-0", node="ipfs-0",
                     cid="c", size=64, started_at=base + 1.5),
        GradientsAggregated(at=base + 3.0, iteration=iteration,
                            aggregator="aggregator-0", partition_id=0,
                            started_at=base + 0.1),
        UpdateRegistered(at=base + 4.0, iteration=iteration,
                         aggregator="aggregator-0", partition_id=0,
                         started_at=base + 3.0),
        IterationFinished(at=base + 4.5, iteration=iteration),
    ]


def exported_trace():
    tree = build_span_tree(round_events())
    return PerfettoExporter([tree]).to_dict(), tree


# -- schema well-formedness ------------------------------------------------------


def test_trace_is_json_object_format():
    trace, _tree = exported_trace()
    assert isinstance(trace["traceEvents"], list)
    assert trace["displayTimeUnit"] == "ms"
    json.loads(json.dumps(trace))  # fully JSON-serializable


def test_every_record_is_well_formed():
    trace, _tree = exported_trace()
    for record in trace["traceEvents"]:
        assert record["ph"] in {"X", "i", "M"}
        assert isinstance(record["name"], str) and record["name"]
        assert isinstance(record["pid"], int)
        if record["ph"] == "M":
            assert record["name"] in {"process_name", "thread_name"}
            assert isinstance(record["args"]["name"], str)
            continue
        assert isinstance(record["tid"], int)
        assert isinstance(record["ts"], float)
        assert record["ts"] >= 0.0
        if record["ph"] == "X":
            assert isinstance(record["dur"], float)
            assert record["dur"] >= 0.0
        else:  # instant
            assert record["s"] == "t"
            assert "dur" not in record


def test_timestamps_are_sim_seconds_in_microseconds():
    trace, tree = exported_trace()
    slices = {record["name"]: record for record in trace["traceEvents"]
              if record["ph"] == "X"}
    [collect] = tree.named("collect")
    assert slices["collect"]["ts"] == collect.start * 1e6
    assert slices["collect"]["dur"] == collect.duration * 1e6
    assert slices["collect"]["args"]["iteration"] == 0
    assert slices["collect"]["args"]["partition_id"] == 0


def test_one_thread_track_per_node():
    trace, tree = exported_trace()
    thread_names = {record["tid"]: record["args"]["name"]
                    for record in trace["traceEvents"]
                    if record["ph"] == "M"
                    and record["name"] == "thread_name"}
    assert sorted(thread_names.values()) == sorted(tree.nodes())
    assert thread_names[0] == "session"  # the root track is tid 0
    # Slices reference only declared tracks.
    for record in trace["traceEvents"]:
        if record["ph"] in {"X", "i"}:
            assert record["tid"] in thread_names


def test_multiple_iterations_share_node_tracks():
    first = build_span_tree(round_events(iteration=0, base=0.0))
    second = build_span_tree(round_events(iteration=1, base=10.0))
    exporter = PerfettoExporter()
    exporter.add_tree(first)
    exporter.add_tree(second)
    trace = exporter.to_dict()
    uploads = [record for record in trace["traceEvents"]
               if record["ph"] == "X" and record["name"] == "upload"]
    assert len(uploads) == 2
    assert uploads[0]["tid"] == uploads[1]["tid"]
    iterations = {record["args"]["iteration"] for record in uploads}
    assert iterations == {0, 1}


# -- destinations ----------------------------------------------------------------


def test_write_to_path_and_stream(tmp_path):
    tree = build_span_tree(round_events())
    exporter = PerfettoExporter([tree])
    target = tmp_path / "timeline.json"
    exporter.write(target)
    assert json.loads(target.read_text())["traceEvents"]
    stream = io.StringIO()
    exporter.write(stream)
    assert json.loads(stream.getvalue()) == exporter.to_dict()


def test_export_from_a_live_collector():
    bus = EventBus()
    collector = SpanCollector(bus)
    for event in round_events():
        bus.publish(event)
    trace = PerfettoExporter(collector.trees.values()).to_dict()
    names = {record["name"] for record in trace["traceEvents"]
             if record["ph"] in {"X", "i"}}
    assert {"iteration", "upload", "collect", "publish_update",
            "register", "fetch"} <= names
