"""Scalability sweeps: every trainer simulated exactly, 4-32 and 64-256.

Not a paper figure, but the question a deployer asks first.  The paper's
architecture argument predicts: with the model partitioned over a fixed
aggregator set, per-aggregator download volume grows linearly in the
trainer count (D = (|T_ij| + |A_i| - 1)·S), so the collection window
grows linearly — while the *directory* handles O(trainers × partitions)
metadata messages, which is why Sec. VI worries about its load.

Two sweeps, both exact (no participant is modelled statistically):

- ``test_scalability_in_trainers``: 4-32 participants — the historical
  per-trainer trajectory.
- ``test_scalability_in_population``: 64-256 participants.  Asserts the
  directory load is exactly linear in the population, every trainer
  completes, and no flow-completion wakeup fires against a superseded
  allocation.
"""

from _helpers import save_table

from repro.analysis import format_table
from repro.analysis.figures import marker_datasets
from repro.core import FLSession, ProtocolConfig
from repro.ml import SyntheticModel
from repro.net import NetworkProfile

TRAINER_COUNTS = [4, 8, 16, 32]
POPULATIONS = [64, 128, 256]
MODEL_PARAMS = 40_000  # small partitions: metadata effects visible
NUM_PARTITIONS = 4


def build_session(num_trainers: int) -> FLSession:
    config = ProtocolConfig(
        num_partitions=NUM_PARTITIONS,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=0.25,
    )
    return FLSession(
        config,
        lambda: SyntheticModel(MODEL_PARAMS),
        marker_datasets(num_trainers),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )


def run_with_trainers(num_trainers: int) -> dict:
    session = build_session(num_trainers)
    metrics = session.run_iteration()
    network = session.testbed.network
    return {
        "recomputed_flows": network.recomputed_flows,
        "stale_wakeups": network.stale_wakeups,
        "collection": metrics.collection_time,
        "end_to_end": metrics.end_to_end_delay,
        "registrations": session.directory.register_count,
        "lookups": session.directory.lookup_count,
        "completed": len(metrics.trainers_completed),
        "trainers": num_trainers,
    }


def test_scalability_in_trainers(benchmark):
    outcome = {}

    def experiment():
        outcome["rows"] = [run_with_trainers(count)
                           for count in TRAINER_COUNTS]

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = outcome["rows"]

    save_table("scalability", format_table(
        ["trainers", "collection (s)", "end-to-end (s)",
         "dir registers", "dir lookups"],
        [[row["trainers"], row["collection"], row["end_to_end"],
          row["registrations"], row["lookups"]]
         for row in rows],
        title=f"Scalability in trainer count ({NUM_PARTITIONS} partitions, "
              "8 IPFS nodes, 10 Mbps)",
    ))

    # Every configuration completes fully.
    assert all(row["completed"] == row["trainers"] for row in rows)
    # Collection grows with trainers (the linear D formula) ...
    collections = [row["collection"] for row in rows]
    assert collections == sorted(collections)
    # ... roughly linearly: 8x the trainers within ~16x the window
    # (slack for polling quantization at the small end).
    assert collections[-1] < collections[0] * 16
    # Directory registrations grow linearly: trainers x partitions + the
    # per-partition updates.
    for row in rows:
        expected = row["trainers"] * NUM_PARTITIONS + NUM_PARTITIONS
        assert row["registrations"] == expected


def test_scalability_in_population(benchmark):
    outcome = {}

    def experiment():
        outcome["rows"] = [run_with_trainers(count)
                           for count in POPULATIONS]

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = outcome["rows"]

    save_table("scalability_population", format_table(
        ["trainers", "end-to-end (s)", "dir registers", "dir lookups",
         "recomputed flows", "stale wakeups"],
        [[row["trainers"], row["end_to_end"], row["registrations"],
          row["lookups"], row["recomputed_flows"], row["stale_wakeups"]]
         for row in rows],
        title=f"Exact population, one round ({NUM_PARTITIONS} partitions, "
              "8 IPFS nodes, 10 Mbps)",
    ))

    for row in rows:
        assert row["completed"] == row["trainers"]
        # Directory registrations are exactly linear in the population:
        # one per trainer and partition, plus the per-partition updates.
        assert row["registrations"] \
            == row["trainers"] * NUM_PARTITIONS + NUM_PARTITIONS
        assert row["lookups"] >= row["trainers"] * NUM_PARTITIONS
        assert row["stale_wakeups"] == 0
