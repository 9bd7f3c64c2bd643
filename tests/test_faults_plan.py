"""Unit tests for the pure-data fault plans and the shared retry policy."""

import json

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    RetryExhaustedError,
    RetryPolicy,
)


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
    "message_loss": dict(probability=0.5, duration=5.0),
}


@pytest.mark.parametrize("kind", sorted(WHOLE_SERVICE_KINDS))
def test_whole_service_kinds_reject_a_target(kind):
    fields = WHOLE_SERVICE_KINDS[kind]
    FaultSpec(kind=kind, at=0.0, **fields)
    with pytest.raises(ValueError, match=f"{kind} fault takes no `target`"):
        FaultSpec(kind=kind, at=0.0, target="directory", **fields)


def test_degrade_link_needs_factor_or_bandwidth():
    with pytest.raises(ValueError, match="factor.*bandwidth_mbps"):
        FaultSpec(kind="degrade_link", at=0.0, target="trainer-0",
                  duration=5.0)
    # Either one is sufficient.
    FaultSpec(kind="degrade_link", at=0.0, target="trainer-0",
              duration=5.0, factor=0.5)
    FaultSpec(kind="degrade_link", at=0.0, target="trainer-0",
              duration=5.0, bandwidth_mbps=1.0)


def test_degrade_link_factor_must_be_positive():
    with pytest.raises(ValueError, match="factor"):
        FaultSpec(kind="degrade_link", at=0.0, target="trainer-0",
                  duration=5.0, factor=0.0)


def test_probability_bounds():
    with pytest.raises(ValueError, match="probability"):
        FaultSpec(kind="message_loss", at=0.0, probability=1.5,
                  duration=5.0)
    FaultSpec(kind="message_loss", at=0.0, probability=1.0, duration=5.0)


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown FaultSpec fields"):
        FaultSpec.from_dict({"kind": "crash_trainer", "at": 0.0,
                             "target": "trainer-0", "severity": "high"})


def test_to_dict_elides_defaults():
    spec = FaultSpec(kind="crash_trainer", at=1.5, target="trainer-0")
    assert spec.to_dict() == {
        "kind": "crash_trainer", "at": 1.5, "target": "trainer-0",
    }


# -- FaultPlan --------------------------------------------------------------------


def sample_plan():
    return FaultPlan([
        FaultSpec(kind="crash_trainer", at=0.5, target="trainer-1",
                  duration=10.0),
        FaultSpec(kind="link_down", at=3.0, target="trainer-2",
                  duration=30.0),
        FaultSpec(kind="directory_brownout", at=1.0,
                  processing_delay=2.0, duration=10.0),
        FaultSpec(kind="crash_ipfs", at=2.0, target="ipfs-0",
                  duration=20.0, lose_storage=True)],
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


def test_plan_json_round_trip():
    plan = sample_plan()
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan
    # And the serialised form itself is stable.
    assert again.to_json() == plan.to_json()


def test_plan_write_and_load(tmp_path):
    plan = sample_plan()
    path = tmp_path / "plan.json"
    plan.write(path)
    assert FaultPlan.load(path) == plan
    # The file is plain, diffable JSON.
    raw = json.loads(path.read_text())
    assert raw["seed"] == 7
    assert len(raw["specs"]) == 4


def test_plan_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown FaultPlan fields"):
        FaultPlan.from_dict({"seed": 0, "specs": [], "color": "red"})


def test_plan_targets_in_first_appearance_order():
    assert list(sample_plan().targets()) == [
        "trainer-1", "trainer-2", "ipfs-0",
    ]


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
    assert error.attempts == 4
    assert "directory.lookup" in str(error)
    assert "4 attempt" in str(error)
