"""Perfetto / Chrome trace-event export of span trees.

Serialises :class:`~repro.obs.spans.SpanTree` objects into the JSON
object format consumed by ``ui.perfetto.dev`` and ``chrome://tracing``:
one *thread track* per node, one complete slice (``"ph": "X"``) per
span, thread-scoped instant markers (``"ph": "i"``) for zero-length
spans, and metadata records (``"ph": "M"``) naming the process and
threads.  Timestamps are simulated seconds scaled to microseconds, the
trace format's native unit.

The output is a plain dict / JSON file.  :func:`fold_trace` rebuilds a
run's timeline from the ``trace.jsonl`` it wrote::

    timeline, trees = fold_trace("bundle/trace.jsonl")
    timeline.write("timeline.json")

Every timestamp is simulated time, so the trace of a seeded run is
byte-identical on replay; host (wall-clock) cost lives in the
:class:`~repro.obs.profiling.HostProfile` artifact instead.
"""

from __future__ import annotations

import io
import json
import os
from typing import Dict, IO, Iterable, List, Optional, Tuple, Union

from .events import AnomalyDetected
from .jsonl import read_trace
from .spans import SESSION_NODE, SPAN_EVENTS, Span, SpanTree, span_trees

#: Single synthetic process all node tracks live under.
_PID = 1
_PROCESS_NAME = "repro"

#: Simulated seconds -> trace microseconds.
_MICROS = 1_000_000.0


class PerfettoExporter:
    """Accumulates span trees and emits Chrome trace-event JSON."""

    def __init__(self, trees: Optional[Iterable[SpanTree]] = None):
        self._events: List[dict] = []
        self._tids: Dict[str, int] = {}
        if trees is not None:
            for tree in trees:
                self.add_tree(tree)

    def add_tree(self, tree: SpanTree) -> None:
        """Append every span of one iteration's tree to the trace."""
        for span in tree:
            self._events.append(self._slice(span))

    def add_anomalies(self, anomalies: Iterable) -> None:
        """Render :class:`~repro.obs.events.AnomalyDetected` markers.

        One instant marker per anomaly on a dedicated pid-1 track
        (named via the usual node-track machinery, so it sorts with the
        simulated-time tracks it annotates), plus a cumulative
        ``anomaly.count`` counter track so a glance at the timeline
        shows when detections accelerated.
        """
        tid = self._tid("anomalies")
        for index, anomaly in enumerate(anomalies):
            args = {
                "kind": anomaly.kind,
                "severity": anomaly.severity,
                "detector": anomaly.detector,
                "iteration": anomaly.iteration,
                "window": anomaly.window,
            }
            args.update(anomaly.evidence_dict())
            self._events.append({
                "name": f"anomaly:{anomaly.kind}",
                "cat": "anomaly",
                "ph": "i",
                "s": "t",
                "pid": _PID,
                "tid": tid,
                "ts": anomaly.at * _MICROS,
                "args": args,
            })
            self._events.append({
                "name": "anomaly.count",
                "ph": "C",
                "pid": _PID,
                "ts": anomaly.at * _MICROS,
                "args": {"value": index + 1},
            })

    def to_dict(self) -> dict:
        """The complete trace as a JSON-object-format dict."""
        return {
            "traceEvents": self._metadata() + list(self._events),
            "displayTimeUnit": "ms",
        }

    def write(self, destination: Union[str, os.PathLike, IO[str]]) -> None:
        """Write the trace to a path or an open text stream."""
        if hasattr(destination, "write"):
            json.dump(self.to_dict(), destination)
            return
        with io.open(os.fspath(destination), "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    # -- internals ---------------------------------------------------------

    def _tid(self, node: str) -> int:
        """Stable thread id per node; the session root track is tid 0."""
        if node not in self._tids:
            self._tids[node] = 0 if node == SESSION_NODE else (
                max(self._tids.values(), default=0) + 1
            )
        return self._tids[node]

    def _slice(self, span: Span) -> dict:
        args: Dict[str, object] = {"iteration": span.iteration}
        if span.partition_id is not None:
            args["partition_id"] = span.partition_id
        for key, value in span.meta.items():
            args[key] = value
        record: Dict[str, object] = {
            "name": span.name,
            "cat": "span",
            "pid": _PID,
            "tid": self._tid(span.node),
            "ts": span.start * _MICROS,
            "args": args,
        }
        if span.is_instant:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        else:
            record["ph"] = "X"
            record["dur"] = span.duration * _MICROS
        return record

    def _metadata(self) -> List[dict]:
        records: List[dict] = [{
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "args": {"name": _PROCESS_NAME},
        }]
        for node, tid in sorted(self._tids.items(), key=lambda kv: kv[1]):
            records.append({
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": node},
            })
        return records


def fold_trace(path: Union[str, os.PathLike]
               ) -> Tuple[PerfettoExporter, Dict[int, SpanTree]]:
    """A run's timeline and ``{iteration: SpanTree}``, rebuilt from its
    trace: the :func:`~repro.obs.spans.span_trees` in iteration order,
    and a marker per ``AnomalyDetected`` record."""
    with open(path, encoding="utf-8") as stream:
        events = list(read_trace(stream, SPAN_EVENTS + (AnomalyDetected,)))
    trees = span_trees(events)
    timeline = PerfettoExporter(trees[i] for i in sorted(trees))
    timeline.add_anomalies(
        event for event in events if type(event) is AnomalyDetected)
    return timeline, trees
