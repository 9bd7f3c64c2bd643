"""The event types are one list of named tuples, and what that means.

- :data:`~repro.obs.events.EVENT_TYPES` is every event type, and the
  coverage test (``test_obs_event_coverage.py``) reads it: one case per
  type plus its exclusion-list case.
- Events are tuples, so equality and hashing are by value across types.
  Consumers key on ``type(event)``, so two events of different types
  with equal values stay two records.
- ``import repro`` defines a pinned number of dataclasses, none of them
  an event type: a count, not a clock, of what set-up generates.
"""

import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from repro.obs import EventBus, FlightRecorder, JsonlTraceExporter
from repro.obs import events as events_module
from repro.obs.events import (
    EVENT_TYPES,
    BlockEvicted,
    BlockStored,
    CommitmentAccumulated,
    FaultHealed,
    FaultInjected,
    GradientsAggregated,
    PartialUpdateRegistered,
    SyncPhaseStarted,
    UpdateRegistered,
)

ROOT = Path(__file__).resolve().parents[1]

#: Event types in ``repro.obs.events``.
EVENT_TYPE_COUNT = 33
#: Dataclasses the ``repro`` modules define once ``import repro`` ran;
#: none of them is an event type.
IMPORT_DATACLASS_COUNT = 36


def _python(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, check=True,
        capture_output=True, text=True,
    ).stdout


# -- one list of event types -----------------------------------------------------


def test_event_types_are_every_named_tuple_of_the_module():
    defined = {
        obj for _, obj in inspect.getmembers(events_module, inspect.isclass)
        if obj.__module__ == events_module.__name__
        and issubclass(obj, tuple) and hasattr(obj, "_fields")
    }
    assert len(EVENT_TYPES) == EVENT_TYPE_COUNT
    assert len(set(EVENT_TYPES)) == EVENT_TYPE_COUNT
    assert set(EVENT_TYPES) == defined


def test_coverage_test_collects_one_case_per_event_type():
    out = _python("-m", "pytest", "--collect-only", "-q",
                  "-p", "no:cacheprovider", "tests/test_obs_event_coverage.py")
    cases = [line for line in out.splitlines() if "::" in line]
    assert len(cases) == EVENT_TYPE_COUNT + 1, out


# -- tuple semantics ---------------------------------------------------------------


def test_only_the_four_known_pairs_share_a_field_list():
    by_fields = defaultdict(set)
    for event_type in EVENT_TYPES:
        by_fields[event_type._fields].add(event_type)
    shared = {frozenset(types) for types in by_fields.values()
              if len(types) > 1}
    assert shared == {
        frozenset({BlockStored, BlockEvicted}),
        frozenset({FaultInjected, FaultHealed}),
        frozenset({PartialUpdateRegistered, SyncPhaseStarted}),
        frozenset({UpdateRegistered, GradientsAggregated}),
    }


def test_equal_values_of_two_types_stay_two_records_in_order():
    stored = BlockStored(at=1.0, node="ipfs-0", cid="bafy", size=3)
    evicted = BlockEvicted(at=1.0, node="ipfs-0", cid="bafy", size=3)
    # What tuple semantics change: equal by value across types.
    assert stored == evicted and hash(stored) == hash(evicted)

    bus = EventBus()
    recorder = FlightRecorder(bus)
    stream = io.StringIO()
    exporter = JsonlTraceExporter(bus, stream)
    bus.publish(stored)
    bus.publish(evicted)
    exporter.close()

    assert [type(event) for event in recorder.window] == [BlockStored,
                                                         BlockEvicted]
    assert [json.loads(line) for line in stream.getvalue().splitlines()] == [
        {"event": "BlockStored", "at": 1.0, "node": "ipfs-0",
         "cid": "bafy", "size": 3},
        {"event": "BlockEvicted", "at": 1.0, "node": "ipfs-0",
         "cid": "bafy", "size": 3},
    ]


def test_count_reads_the_field():
    event = CommitmentAccumulated(
        at=1.0, iteration=0, partition_id=0, uploader="trainer-0",
        aggregator="aggregator-0", commitment=None, accumulated=None,
        count=3)
    assert event.count == 3
    assert event._replace(count=4).count == 4


# -- a count, not a clock ----------------------------------------------------------


def test_import_repro_defines_the_pinned_dataclasses_and_no_event_one():
    out = _python("-c", """
import dataclasses, inspect, sys
import repro
from repro.obs.events import EVENT_TYPES
count = sum(
    1 for name, module in list(sys.modules.items())
    if name == "repro" or name.startswith("repro.")
    for obj in vars(module).values()
    if inspect.isclass(obj) and obj.__module__ == name
    and dataclasses.is_dataclass(obj))
print(count, sum(map(dataclasses.is_dataclass, EVENT_TYPES)))
""")
    dataclass_count, event_dataclasses = map(int, out.split())
    assert dataclass_count == IMPORT_DATACLASS_COUNT
    assert event_dataclasses == 0
    assert not any(map(dataclasses.is_dataclass, EVENT_TYPES))
