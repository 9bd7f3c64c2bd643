"""Ablation: directory polling cadence.

Algorithm 1's trainers and aggregators discover CIDs by *polling* the
directory ("check the DS until you get the Cids").  The cadence trades
reactivity against directory load — one of the "possible bottlenecks"
the paper's Sec. V/VI discussion flags.  Sweep the poll interval and
measure both sides of the trade.
"""

from _helpers import dummy_datasets, save_table

from repro.analysis import Sweep, format_table
from repro.core import FLSession, ProtocolConfig
from repro.ml import SyntheticModel
from repro.net import NetworkProfile

POLL_INTERVALS = [0.1, 0.5, 2.0]
NUM_TRAINERS = 8
MODEL_PARAMS = 20_000


def run_with_interval(poll_interval: float) -> dict:
    config = ProtocolConfig(
        num_partitions=2,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=poll_interval,
    )
    session = FLSession(
        config,
        lambda: SyntheticModel(MODEL_PARAMS),
        dummy_datasets(NUM_TRAINERS),
        network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
    )
    metrics = session.run_iteration()
    return {
        "end_to_end": metrics.end_to_end_delay,
        "iteration": metrics.duration,
        "lookups": session.directory.lookup_count,
        "completed": len(metrics.trainers_completed),
    }


def test_poll_interval_tradeoff(benchmark):
    outcome = {}

    def experiment():
        outcome["results"] = Sweep("poll_interval", POLL_INTERVALS).run(
            run_with_interval
        )

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    results = outcome["results"]

    save_table("poll_interval", format_table(
        ["poll interval (s)", "end-to-end (s)", "iteration (s)",
         "directory lookups"],
        [[interval, row["end_to_end"], row["iteration"], row["lookups"]]
         for interval, row in results.rows],
        title=f"Polling cadence trade-off ({NUM_TRAINERS} trainers, "
              "2 partitions)",
    ))

    rows = results.values()
    assert all(row["completed"] == NUM_TRAINERS for row in rows)
    # Coarser polling -> slower rounds ...
    delays = [row["iteration"] for row in rows]
    assert delays == sorted(delays)
    assert delays[-1] > 1.5 * delays[0]
    # ... but far fewer directory queries.
    lookups = [row["lookups"] for row in rows]
    assert lookups == sorted(lookups, reverse=True)
    assert lookups[0] > 2 * lookups[-1]
