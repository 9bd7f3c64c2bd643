"""Unit tests for the pure-data fault plans and the shared retry policy."""

import dataclasses
import json

import pytest

from repro.faults import (
    FaultPlan,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.faults.plan import FAULT_KINDS, FaultSpec


# -- FaultSpec validation ---------------------------------------------------------


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(kind="meteor_strike", at=1.0)


def test_negative_at_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        FaultSpec(kind="crash_trainer", at=-1.0, target="trainer-0")


def test_non_positive_duration_rejected():
    with pytest.raises(ValueError, match="duration"):
        FaultSpec(kind="link_down", at=0.0, target="trainer-0",
                  duration=0.0)


@pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
def test_each_kind_enforces_its_required_fields(kind):
    with pytest.raises(ValueError, match="requires"):
        FaultSpec(kind=kind, at=0.0)


WHOLE_SERVICE_KINDS = {
    "directory_brownout": dict(processing_delay=0.1, duration=5.0),
}


@pytest.mark.parametrize("kind", sorted(WHOLE_SERVICE_KINDS))
def test_whole_service_kinds_reject_a_target(kind):
    fields = WHOLE_SERVICE_KINDS[kind]
    FaultSpec(kind=kind, at=0.0, **fields)
    with pytest.raises(ValueError, match=f"{kind} fault takes no `target`"):
        FaultSpec(kind=kind, at=0.0, target="directory", **fields)


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown FaultSpec fields"):
        FaultSpec.from_dict({"kind": "crash_trainer", "at": 0.0,
                             "target": "trainer-0", "severity": "high"})


# -- FaultPlan --------------------------------------------------------------------


def sample_plan():
    return FaultPlan([
        FaultSpec(kind="crash_trainer", at=0.5, target="trainer-1",
                  duration=10.0),
        FaultSpec(kind="link_down", at=3.0, target="trainer-2",
                  duration=30.0),
        FaultSpec(kind="directory_brownout", at=1.0,
                  processing_delay=2.0, duration=10.0),
        FaultSpec(kind="crash_aggregator", at=2.0, target="aggregator-0")],
        seed=7,
    )


def test_plan_truthiness_and_len():
    assert not FaultPlan()
    assert len(FaultPlan()) == 0
    plan = sample_plan()
    assert plan
    assert len(plan) == 4


def test_plan_specs_must_be_fault_specs():
    with pytest.raises(TypeError):
        FaultPlan(specs=({"kind": "crash_trainer"},))


SAMPLE_JSON = {"seed": 7, "specs": [
    {"kind": "crash_trainer", "at": 0.5, "target": "trainer-1",
     "duration": 10.0},
    {"kind": "link_down", "at": 3.0, "target": "trainer-2",
     "duration": 30.0},
    {"kind": "directory_brownout", "at": 1.0, "processing_delay": 2.0,
     "duration": 10.0},
    {"kind": "crash_aggregator", "at": 2.0, "target": "aggregator-0"}]}


def test_plan_write_and_load(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(SAMPLE_JSON))
    assert FaultPlan.load(path) == sample_plan()


@pytest.mark.parametrize("spec", [
    {"kind": "message_loss", "at": 0, "probability": 0.1},
    {"kind": "crash_ipfs", "at": 0, "target": "ipfs-0", "duration": 5.0},
    {"kind": "degrade_link", "at": 0, "target": "trainer-0",
     "duration": 5.0, "factor": 0.5},
    {"kind": "link_down", "at": 0, "target": "trainer-0",
     "duration": 5.0, "bandwidth_mbps": 1.0},
    {"kind": "crash_trainer", "at": 0, "target": "trainer-0",
     "lose_storage": False},
], ids=["message_loss", "crash_ipfs", "degrade_link", "bandwidth_mbps",
        "lose_storage"])
def test_load_rejects_a_removed_kind_or_field(tmp_path, spec):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"specs": [spec]}))
    with pytest.raises(ValueError) as caught:
        FaultPlan.load(path)
    message = str(caught.value)
    # The error names what a plan may use.
    for name in list(FAULT_KINDS) + ["kind", "at", "target", "duration",
                                     "processing_delay"]:
        assert repr(name) in message


def test_the_spec_vocabulary_is_the_shipped_plans():
    assert sorted(FAULT_KINDS) == [
        "crash_aggregator", "crash_trainer", "directory_brownout",
        "link_down"]
    assert [f.name for f in dataclasses.fields(FaultSpec)] == [
        "kind", "at", "target", "duration", "processing_delay"]


@pytest.mark.parametrize("suffix", [".yaml", ".yml"])
def test_load_rejects_a_yaml_plan(tmp_path, suffix):
    path = tmp_path / f"plan{suffix}"
    path.write_text("specs: []\n")
    with pytest.raises(ValueError, match=r"\.json"):
        FaultPlan.load(path)


def test_plan_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown FaultPlan fields"):
        FaultPlan.from_dict({"seed": 0, "specs": [], "color": "red"})


# -- RetryPolicy ------------------------------------------------------------------


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy()
    raw = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]  # capped at 30 s
    for attempt, expected in enumerate(raw):
        delay = policy.backoff(attempt, key="k")
        assert expected * 0.9 <= delay <= expected * 1.1


def test_backoff_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy()
    for attempt in range(4):
        first = policy.backoff(attempt, key="trainer-0:get:cid")
        again = policy.backoff(attempt, key="trainer-0:get:cid")
        assert first == again  # replayable
        raw = min(0.5 * 2.0 ** attempt, 30.0)
        assert raw * 0.9 <= first <= raw * 1.1


def test_backoff_jitter_varies_across_keys():
    policy = RetryPolicy()
    delays = {policy.backoff(0, key=f"actor-{i}") for i in range(8)}
    assert len(delays) > 1  # actors desynchronise


def test_backoff_rejects_negative_attempt():
    with pytest.raises(ValueError):
        RetryPolicy().backoff(-1)


def test_retry_exhausted_error_carries_context():
    error = RetryExhaustedError("directory.lookup", 4)
    assert error.operation == "directory.lookup"
    assert "directory.lookup" in str(error)
    assert "4 attempt" in str(error)
