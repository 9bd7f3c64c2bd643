"""Scalability sweeps: per-trainer (4-32) and population (10^2-10^5).

Not a paper figure, but the question a deployer asks first.  The paper's
architecture argument predicts: with the model partitioned over a fixed
aggregator set, per-aggregator download volume grows linearly in the
trainer count (D = (|T_ij| + |A_i| - 1)·S), so the collection window
grows linearly — while the *directory* handles O(trainers × partitions)
metadata messages, which is why Sec. VI worries about its load.

Two sweeps:

- ``test_scalability_in_trainers``: every trainer simulated exactly,
  4-32 participants — the historical per-trainer trajectory.
- ``test_scalability_in_population``: 10^2-10^5 total trainers via the
  cohort abstraction (16 exact + 16 statistical cohorts, see
  docs/SCALING.md).  Asserts the load metrics still scale linearly in
  the *population* while the wall-clock per simulated iteration stays
  roughly flat — the O(sample + cohorts) claim.  Writes the same
  manifest shape as the committed ``benchmarks/BENCH_scale.json``
  regression baseline.
"""

import os

from _helpers import RESULTS_DIR, dummy_datasets, save_table

from repro.analysis import (
    ScaleScenario,
    Sweep,
    format_scale_table,
    format_table,
    run_scale_sweep,
    scale_manifest,
)
from repro.core import FLSession, ProtocolConfig
from repro.ml import SyntheticModel
from repro.net import NetworkProfile

TRAINER_COUNTS = [4, 8, 16, 32]
POPULATIONS = [100, 1_000, 10_000, 100_000]
MODEL_PARAMS = 40_000  # small partitions: metadata effects visible
NUM_PARTITIONS = 4


def run_with_trainers(num_trainers: int) -> dict:
    config = ProtocolConfig(
        num_partitions=NUM_PARTITIONS,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=0.25,
    )
    session = FLSession(
        config,
        lambda: SyntheticModel(MODEL_PARAMS),
        dummy_datasets(num_trainers),
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )
    metrics = session.run_iteration()
    return {
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
        outcome["results"] = Sweep("trainers", TRAINER_COUNTS).run(
            run_with_trainers
        )

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    results = outcome["results"]

    save_table("scalability", format_table(
        ["trainers", "collection (s)", "end-to-end (s)",
         "dir registers", "dir lookups"],
        [[row["trainers"], row["collection"], row["end_to_end"],
          row["registrations"], row["lookups"]]
         for row in results.values()],
        title=f"Scalability in trainer count ({NUM_PARTITIONS} partitions, "
              "8 IPFS nodes, 10 Mbps)",
    ))

    rows = results.values()
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
    scenario = ScaleScenario()
    outcome = {}

    def experiment():
        outcome["points"] = run_scale_sweep(POPULATIONS, scenario)

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    points = outcome["points"]

    save_table("scalability_population", format_scale_table(
        points,
        title=f"Scaling in population ({scenario.exact_trainers} exact "
              f"trainers, {scenario.cohorts} cohorts, "
              f"{scenario.bandwidth_mbps:g} Mbps)",
    ))
    scale_manifest(points, scenario).write(
        os.path.join(RESULTS_DIR, "BENCH_scale.json")
    )

    by_population = {point.population: point for point in points}
    assert sorted(by_population) == sorted(POPULATIONS)
    for point in points:
        # Directory load is linear in the *population*: every modeled
        # trainer registers and looks up each partition, plus the
        # per-partition update registrations — the Sec. VI load the
        # cohorts exist to preserve.
        expected = point.population * scenario.num_partitions
        assert point.registrations == expected + scenario.num_partitions
        assert point.lookups >= expected
        # Every cohort's full round load landed, and no wakeup fired
        # against a dead allocation epoch.
        assert point.cohorts_completed == scenario.cohorts
        assert point.stale_wakeups == 0
    # The O(sample + cohorts) claim: 1000x the population must not cost
    # anywhere near 1000x the wall-clock.  Generous slack (25x) keeps
    # the gate meaningful without CI-timing flakiness; the committed
    # BENCH_scale.json tracks the tight trajectory.
    assert by_population[100_000].wall_seconds \
        < max(by_population[100].wall_seconds, 0.05) * 25
