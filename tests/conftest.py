"""Session-scoped run bundles.

A ``cli run`` of a configuration that spends its rounds waiting (the
churn plan's takeovers, a rejected update's 1 200 s of polling) takes
10+ s under the always-on host profiler, so each such bundle is made
once and shared by every test that reads it (tests/test_cli.py,
tests/test_obs_anomaly.py, tests/test_analysis_diagnose.py).
"""

import pytest

from repro.faults import FaultPlan, FaultSpec
from tests.util import run_bundle

#: The CI chaos job's churn invocation.
CHURN = ["--rounds", "2", "--aggregators-per-partition", "2",
         "--request-timeout", "10", "--plan", "examples/plans/churn.json"]

#: A link flap under a directory brown-out: one trainer's registrations
#: stall mid-round (one ``throughput_collapse``, one sealed incident),
#: everybody still finishes.  ``--plan`` is appended by the fixture.
FLAP = ["--rounds", "2", "--request-timeout", "1"]


@pytest.fixture(scope="session")
def churn_bundle(tmp_path_factory):
    """The seeded churn plan, both of its anomaly kinds expected."""
    return run_bundle(
        CHURN + ["--expect-anomaly", "retry_storm",
                 "--expect-anomaly", "throughput_collapse"],
        tmp_path_factory.mktemp("churn"))


@pytest.fixture(scope="session")
def flap_bundles(tmp_path_factory):
    """A seeded fault plan run twice: ``expected`` names the anomaly kind
    it causes, ``omitted`` does not.  What ``--expect-anomaly`` lists
    never reaches the simulation, so the two are also each other's
    replay.  (Not the churn plan: that costs 15 s a run here, and its
    replay is ``cmp``-ed by the CI chaos job on every push.)"""
    root = tmp_path_factory.mktemp("flap")
    plan = root / "flap.json"
    plan.write_text(FaultPlan.of(
        FaultSpec(kind="link_down", at=0.05, duration=2.0,
                  target="trainer-2"),
        FaultSpec(kind="directory_brownout", at=0.02, duration=1.0,
                  processing_delay=0.2),
        seed=3).to_json())
    argv = FLAP + ["--plan", str(plan)]
    expected = run_bundle(
        argv + ["--expect-anomaly", "throughput_collapse"],
        root / "expected")
    omitted = run_bundle(argv, root / "omitted")
    return expected, omitted


@pytest.fixture(scope="session")
def drop_bundle(tmp_path_factory):
    """A seeded drop-gradients aggregator (no ``--verifiable`` on the
    command line: ``--inject`` must force it)."""
    return run_bundle(
        ["--trainers", "4", "--rounds", "1", "--partitions", "1",
         "--ipfs-nodes", "4", "--params", "64", "--inject", "drop"],
        tmp_path_factory.mktemp("drop"))
