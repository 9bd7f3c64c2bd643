"""Exhaustiveness: every event type is mapped into counters or metrics,
or is on the explicit exclusion list.

This is the test that fails when someone adds an event to
``repro.obs.events`` and forgets to give it a counter — the silent
observability gap the registries otherwise can't detect.
"""

import pytest

from repro.obs import CountersRegistry, EventBus, MetricsRegistry
from repro.obs.events import (
    EVENT_TYPES,
    BytesReceived,
    IterationStarted,
    SyncPhaseStarted,
    TransferStarted,
)

#: Events deliberately absent from both registries, with the reason.
#: Grow this list consciously — never to make the test pass.
EXCLUDED = {
    TransferStarted: "start marker; TransferCompleted carries the "
                     "duration and size",
    IterationStarted: "start marker; IterationFinished is counted",
    SyncPhaseStarted: "start marker; SyncPhaseEnded carries the "
                      "duration",
    BytesReceived: "folded into per-iteration telemetry by "
                   "TelemetryCollector, not a counter",
}


def all_event_types():
    return sorted(EVENT_TYPES, key=lambda cls: cls.__name__)


def mapped_event_types():
    """What a live bus delivers once both registries have subscribed."""
    bus = EventBus()
    MetricsRegistry(bus, counters=CountersRegistry(bus))
    return {event_type for event_type in all_event_types()
            if bus.wants(event_type)}


@pytest.mark.parametrize("event_type", all_event_types(),
                         ids=lambda cls: cls.__name__)
def test_event_is_counted_or_explicitly_excluded(event_type):
    if event_type in EXCLUDED:
        return
    assert event_type in mapped_event_types(), (
        f"{event_type.__name__} is observed by neither CountersRegistry "
        f"nor MetricsRegistry; map it or add it to EXCLUDED with a "
        f"reason"
    )


def test_exclusion_list_is_disjoint_from_the_mapped_set():
    stale = [cls.__name__ for cls in EXCLUDED if cls in mapped_event_types()]
    assert not stale, f"now mapped, drop from EXCLUDED: {stale}"
